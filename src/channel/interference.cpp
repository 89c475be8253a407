#include "channel/interference.h"

#include <algorithm>

#include "phy/params.h"

namespace silence {

void PulseInterferer::apply(std::span<Cx> samples, Rng& rng) const {
  for (std::size_t base = 0; base < samples.size();
       base += static_cast<std::size_t>(kSymbolSamples)) {
    if (rng.uniform() >= symbol_hit_probability) continue;
    const std::size_t end =
        std::min(base + static_cast<std::size_t>(kSymbolSamples),
                 samples.size());
    rng.add_complex_gaussian(samples.subspan(base, end - base), pulse_power);
  }
}

}  // namespace silence
