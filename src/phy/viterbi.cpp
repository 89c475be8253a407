#include "phy/viterbi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "phy/convolutional.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace silence {

namespace {

// A finite "minus infinity" for the double path: large enough to
// dominate, small enough that adding branch metrics never overflows.
constexpr double kFloor = -1e18;

// Integer "minus infinity". Unreachable states only accumulate branch
// metrics for at most 5 steps (after 6 transitions every state is
// reachable from state 0), so floored metrics stay below
// kIntFloor + 5*2*kQuantMax, which is well under the smallest reachable
// metric -kMaxFixedSteps*2*kQuantMax. Nothing saturates, nothing wraps.
constexpr std::int32_t kIntFloor =
    std::numeric_limits<std::int32_t>::min() / 2;

static_assert(static_cast<std::int64_t>(ViterbiDecoder::kMaxFixedSteps) * 2 *
                      ViterbiDecoder::kQuantMax <
                  std::numeric_limits<std::int32_t>::max(),
              "reachable metrics must not overflow int32");
static_assert(kIntFloor + 5LL * 2 * ViterbiDecoder::kQuantMax <
                  -static_cast<std::int64_t>(ViterbiDecoder::kMaxFixedSteps) *
                      2 * ViterbiDecoder::kQuantMax,
              "floored metrics must stay below every reachable metric");

}  // namespace

ViterbiDecoder::ViterbiDecoder()
    : output_table_(static_cast<std::size_t>(kNumStates) * 2) {
  for (int state = 0; state < kNumStates; ++state) {
    for (int input = 0; input < 2; ++input) {
      output_table_[static_cast<std::size_t>(state) * 2 +
                    static_cast<std::size_t>(input)] =
          conv_output(state, input);
    }
  }
  for (int j = 0; j < kNumStates / 2; ++j) {
    const std::uint8_t x = output_table_[static_cast<std::size_t>(j) * 4];
    sign_a_[j] = (x & 1) ? -1 : 1;
    sign_b_[j] = (x & 2) ? -1 : 1;
  }
}

void ViterbiDecoder::traceback(const ViterbiWorkspace& ws, std::size_t steps,
                               int state, Bits& out) const {
  out.resize(steps);
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> 5);
    state = ((state & 31) << 1) |
            static_cast<int>((ws.survivors[t] >> state) & 1);
  }
}

Bits ViterbiDecoder::decode(std::span<const double> llrs,
                            bool terminated) const {
  ViterbiWorkspace ws;
  Bits out;
  decode(llrs, terminated, ws, out);
  return out;
}

void ViterbiDecoder::decode(std::span<const double> llrs, bool terminated,
                            ViterbiWorkspace& ws, Bits& out) const {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi: need an even number of LLRs");
  }
  const std::size_t steps = llrs.size() / 2;
  out.clear();
  if (steps == 0) return;
  ws.survivors.resize(steps);

  double buf_a[kNumStates];
  double buf_b[kNumStates];
  double* metric = buf_a;
  double* next_metric = buf_b;
  std::fill(metric, metric + kNumStates, kFloor);
  metric[0] = 0.0;  // encoder starts zeroed

  for (std::size_t t = 0; t < steps; ++t) {
    // Branch affinity for coded pair (a, b): +llr/2 for bit 0, -llr/2
    // for bit 1; an erased (zero) LLR is neutral, implementing EVD.
    const double half_a = 0.5 * llrs[2 * t];
    const double half_b = 0.5 * llrs[2 * t + 1];
    const double bm[4] = {half_a + half_b, -half_a + half_b,
                          half_a - half_b, -half_a - half_b};
    std::uint64_t word = 0;
    for (int next = 0; next < kNumStates; ++next) {
      const int input = next >> 5;
      const int base = (next & 31) * 2;
      const double m0 =
          metric[base] +
          bm[output_table_[static_cast<std::size_t>(base) * 2 +
                           static_cast<std::size_t>(input)]];
      const double m1 =
          metric[base + 1] +
          bm[output_table_[(static_cast<std::size_t>(base) + 1) * 2 +
                           static_cast<std::size_t>(input)]];
      const bool pick1 = m1 > m0;
      next_metric[next] = pick1 ? m1 : m0;
      word |= static_cast<std::uint64_t>(pick1) << next;
    }
    std::swap(metric, next_metric);
    ws.survivors[t] = word;
  }

  int state = 0;
  if (!terminated) {
    state = static_cast<int>(std::distance(
        metric, std::max_element(metric, metric + kNumStates)));
  }
  traceback(ws, steps, state, out);
}

void ViterbiDecoder::quantize_llrs(std::span<const double> llrs,
                                   std::span<std::int16_t> out) {
  if (out.size() != llrs.size()) {
    throw std::invalid_argument("quantize_llrs: output size mismatch");
  }
  double max_abs = 0.0;
  for (const double v : llrs) {
    const double a = std::fabs(v);
    if (std::isfinite(a) && a > max_abs) max_abs = a;
  }
  const double scale = max_abs > 0.0 ? kQuantMax / max_abs : 0.0;
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    const double v = llrs[i];
    int q;
    if (std::isnan(v)) {
      q = 0;
    } else if (!std::isfinite(v)) {
      q = v > 0.0 ? kQuantMax : -kQuantMax;
    } else {
      const double s = v * scale;
      q = static_cast<int>(s + (s >= 0.0 ? 0.5 : -0.5));
      q = std::clamp(q, -kQuantMax, kQuantMax);
    }
    out[i] = static_cast<std::int16_t>(q);
  }
}

Bits ViterbiDecoder::decode_fixed(std::span<const double> llrs,
                                  bool terminated) const {
  ViterbiWorkspace ws;
  Bits out;
  decode_fixed(llrs, terminated, ws, out);
  return out;
}

void ViterbiDecoder::decode_fixed(std::span<const double> llrs,
                                  bool terminated, ViterbiWorkspace& ws,
                                  Bits& out) const {
  if (llrs.size() % 2 != 0) {
    throw std::invalid_argument("viterbi: need an even number of LLRs");
  }
  const std::size_t steps = llrs.size() / 2;
  out.clear();
  if (steps == 0) return;
  if (steps > kMaxFixedSteps) {
    // Beyond the proven no-overflow bound (never hit by legal 802.11a
    // frames): take the exact double path instead.
    decode(llrs, terminated, ws, out);
    return;
  }

  ws.quantized.resize(llrs.size());
  quantize_llrs(llrs, ws.quantized);
  ws.survivors.resize(steps);

  // Metrics are kept scaled by 2 relative to the double path's llr/2
  // convention; a uniform scale changes no comparison.
  alignas(16) std::int32_t buf_a[kNumStates];
  alignas(16) std::int32_t buf_b[kNumStates];
  alignas(16) std::int32_t g[kNumStates / 2];
  std::int32_t* metric = buf_a;
  std::int32_t* next_metric = buf_b;
  std::fill(metric, metric + kNumStates, kIntFloor);
  metric[0] = 0;

  const std::int16_t* q = ws.quantized.data();
  for (std::size_t t = 0; t < steps; ++t) {
    const std::int32_t la = q[2 * t];
    const std::int32_t lb = q[2 * t + 1];
    for (int j = 0; j < kNumStates / 2; ++j) {
      g[j] = sign_a_[j] * la + sign_b_[j] * lb;
    }

    // Butterfly j (predecessors e=2j, o=2j+1; successors j and j+32):
    //   next[j]    = max(e + g_j, o - g_j)   (input 0)
    //   next[j+32] = max(e - g_j, o + g_j)   (input 1)
    // because flipping the state LSB or the input bit complements both
    // coded bits, which negates the branch metric exactly.
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
#if defined(__SSE2__)
    for (int j = 0; j < kNumStates / 2; j += 4) {
      const __m128i v0 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(metric + 2 * j));
      const __m128i v1 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(metric + 2 * j + 4));
      const __m128i me = _mm_castps_si128(_mm_shuffle_ps(
          _mm_castsi128_ps(v0), _mm_castsi128_ps(v1), _MM_SHUFFLE(2, 0, 2, 0)));
      const __m128i mo = _mm_castps_si128(_mm_shuffle_ps(
          _mm_castsi128_ps(v0), _mm_castsi128_ps(v1), _MM_SHUFFLE(3, 1, 3, 1)));
      const __m128i g4 =
          _mm_load_si128(reinterpret_cast<const __m128i*>(g + j));

      const __m128i a0 = _mm_add_epi32(me, g4);
      const __m128i a1 = _mm_sub_epi32(mo, g4);
      const __m128i p = _mm_cmpgt_epi32(a1, a0);
      const __m128i max0 =
          _mm_or_si128(_mm_and_si128(p, a1), _mm_andnot_si128(p, a0));
      _mm_store_si128(reinterpret_cast<__m128i*>(next_metric + j), max0);
      lo |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(p)))
            << j;

      const __m128i b0 = _mm_sub_epi32(me, g4);
      const __m128i b1 = _mm_add_epi32(mo, g4);
      const __m128i r = _mm_cmpgt_epi32(b1, b0);
      const __m128i max1 =
          _mm_or_si128(_mm_and_si128(r, b1), _mm_andnot_si128(r, b0));
      _mm_store_si128(
          reinterpret_cast<__m128i*>(next_metric + kNumStates / 2 + j), max1);
      hi |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(r)))
            << j;
    }
#else
    for (int j = 0; j < kNumStates / 2; ++j) {
      const std::int32_t me = metric[2 * j];
      const std::int32_t mo = metric[2 * j + 1];
      const std::int32_t a0 = me + g[j];
      const std::int32_t a1 = mo - g[j];
      const bool p = a1 > a0;
      next_metric[j] = p ? a1 : a0;
      lo |= static_cast<std::uint32_t>(p) << j;
      const std::int32_t b0 = me - g[j];
      const std::int32_t b1 = mo + g[j];
      const bool r = b1 > b0;
      next_metric[kNumStates / 2 + j] = r ? b1 : b0;
      hi |= static_cast<std::uint32_t>(r) << j;
    }
#endif
    ws.survivors[t] = static_cast<std::uint64_t>(lo) |
                      (static_cast<std::uint64_t>(hi) << 32);
    std::swap(metric, next_metric);
  }

  int state = 0;
  if (!terminated) {
    std::int32_t best = metric[0];
    for (int s = 1; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  }
  traceback(ws, steps, state, out);
}

}  // namespace silence
