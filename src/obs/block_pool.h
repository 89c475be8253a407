// Pooled per-thread blocks of relaxed atomics: the storage discipline of
// both obs registries (obs/metrics.h interns names into its block layout,
// obs/health/health.h indexes a fixed enum grid).
//
// A block is owned by exactly one live thread at a time (single writer),
// so a hot-path increment is a load+store pair on an uncontended cache
// line, with no locks and no RMW contention. A thread leases a free block
// on its first recording and returns it on exit, so totals survive thread
// death and memory stays bounded at O(peak concurrent threads). Blocks
// live in a deque: addresses are stable and the pool never shrinks.
#pragma once

#include <deque>
#include <mutex>
#include <vector>

namespace silence::obs {

// One pool per Block type (a thread's lease is a thread_local of the
// instantiation), and a pool must outlive every thread that recorded
// into it (the lease hands its block back on thread exit). Both
// registries satisfy this as leaked process-wide singletons.
template <class Block>
class BlockPool {
 public:
  // The calling thread's block, leased on its first call.
  Block& local() {
    thread_local Lease lease;
    return lease.acquire(*this);
  }

  // Calls f(block) for every block ever leased (live or returned) under
  // the pool lock. Readers of live blocks see relaxed atomics: values
  // in flight may or may not be included, but nothing tears.
  template <class F>
  void for_each(F&& f) const {
    std::lock_guard lock(mutex_);
    for (const Block& block : blocks_) f(block);
  }
  template <class F>
  void for_each(F&& f) {
    std::lock_guard lock(mutex_);
    for (Block& block : blocks_) f(block);
  }

 private:
  // Ties a block to one thread's lifetime; the destructor hands it back
  // to the free list so a later thread keeps accumulating into it.
  struct Lease {
    BlockPool* pool = nullptr;
    Block* block = nullptr;

    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Block& acquire(BlockPool& p) {
      if (block == nullptr) {
        pool = &p;
        std::lock_guard lock(p.mutex_);
        if (!p.free_.empty()) {
          block = p.free_.back();
          p.free_.pop_back();
        } else {
          block = &p.blocks_.emplace_back();
        }
      }
      return *block;
    }

    ~Lease() {
      if (block != nullptr) {
        std::lock_guard lock(pool->mutex_);
        pool->free_.push_back(block);
      }
    }
  };

  mutable std::mutex mutex_;
  std::deque<Block> blocks_;
  std::vector<Block*> free_;  // returned by dead threads
};

}  // namespace silence::obs
