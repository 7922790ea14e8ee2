// Topology-aware sharded execution (ROADMAP "NUMA-aware sharding").
//
// A ShardedExecutor owns one pinned worker group (ThreadPool) and one
// memory arena per topology node. Shards — service components, SVD entry
// partitions — are assigned a *home group* and all their work is dispatched
// to that group's pool, so a shard's hot state (CSR pools, factor working
// sets, accumulators) is touched only by threads running on its node:
// first-touch page placement then keeps the pages node-local and the
// interconnect out of the steady-state path. On a single-node machine the
// executor degrades to exactly one group over every schedulable CPU, which
// behaves like the one global ThreadPool it replaces.
//
// The per-node NodeArena is a bump allocator whose blocks are zero-touched
// at grab time by the allocating thread; allocations made from inside a
// group task (the intended pattern — e.g. the node-partitioned SVD's
// per-node factor working sets) are therefore first-touched on the node
// that will use them. Arena memory is recycled with reset(), never freed
// piecemeal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/topology.h"

namespace at::common {

/// Per-node bump allocator. Thread-safe; allocate from inside a task on
/// the owning node's group so new blocks are first-touched node-locally.
class NodeArena {
 public:
  explicit NodeArena(std::size_t block_bytes = std::size_t{1} << 20)
      : block_bytes_(block_bytes) {}

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// 64-byte-aligned storage (cache-line aligned, so per-node working sets
  /// never false-share across groups). Lives until reset()/destruction.
  void* allocate(std::size_t bytes);

  template <typename T>
  T* allocate_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without destructors");
    return static_cast<T*>(allocate(n * sizeof(T)));
  }

  /// Recycles every block (capacity and page placement are retained, which
  /// is the point: the next epoch's working sets land on the same pages).
  void reset();

  /// LIFO scratch rollback: `release(mark())` returns the arena to its
  /// pre-mark fill, keeping blocks (and their page placement) for reuse.
  /// Valid only when every allocation made after mark() is dead — the
  /// node-scratch pattern of one algorithm's working sets at a time. The
  /// sharded SVD brackets its per-node factor working sets this way so
  /// repeated rebuilds on a long-lived executor cannot grow the arena.
  struct Checkpoint {
    std::vector<std::size_t> used;  // per-block fill at mark time
  };
  Checkpoint mark() const;
  void release(const Checkpoint& cp);

  std::size_t bytes_reserved() const;
  std::size_t bytes_used() const;

 private:
  struct Block {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t skip = 0;  // bytes to the 64-byte-aligned base
    std::size_t size = 0;  // usable bytes past the skip
    std::size_t used = 0;  // consumed bytes, counted from the aligned base
  };

  std::size_t block_bytes_;
  mutable Mutex mutex_;
  std::vector<Block> blocks_ AT_GUARDED_BY(mutex_);
};

class ShardedExecutor {
 public:
  /// One pinned worker group + arena per node of `topo` (defaults to the
  /// AT_TOPOLOGY-resolved machine layout). Each group spawns one worker
  /// per node CPU, every worker pinned to the node's CPU set.
  explicit ShardedExecutor(const Topology& topo = active_topology());

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  const Topology& topology() const { return topo_; }
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_size(std::size_t g) const {
    return groups_[g].pool->size();
  }
  std::size_t total_workers() const;

  ThreadPool& group(std::size_t g) { return *groups_[g].pool; }
  NodeArena& arena(std::size_t g) { return *groups_[g].arena; }

  /// Home group of a shard id: round-robin, so any contiguous shard range
  /// spreads evenly across nodes.
  std::size_t home_group(std::size_t shard) const {
    return shard % groups_.size();
  }

  /// Group the calling thread belongs to, or kNoGroup off the executor's
  /// workers. Lets shard code assert (and tests prove) node-local driving.
  static constexpr std::size_t kNoGroup = ~std::size_t{0};
  static std::size_t current_group();

  /// Runs fn(shard) for shard in [0, n), each dispatched to its home
  /// group; blocks until all complete (first exception rethrown after all
  /// finish, mirroring ThreadPool::parallel_for). One task per shard —
  /// right for heavy shard work (construction, updates, SVD partitions).
  void for_each_shard(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Same contract, but each group runs the shards homed on it as one
  /// parallel_for on its own pool: one task per other group, while the
  /// calling thread drives group 0's share itself. O(groups) dispatch
  /// overhead instead of O(n) — right for per-query fan-out, where task
  /// bookkeeping would otherwise rival the scan itself; on a one-group
  /// machine it is exactly one parallel_for over all shards.
  void for_each_shard_grouped(std::size_t n,
                              const std::function<void(std::size_t)>& fn);

  /// Runs fn(g) once per group, on that group; blocks. Used for per-node
  /// merge/setup phases.
  void for_each_group(const std::function<void(std::size_t)>& fn);

  /// Enqueues fn on group g's pool.
  template <typename F>
  std::future<void> submit(std::size_t g, F&& fn) {
    return groups_[g].pool->submit(std::forward<F>(fn));
  }

 private:
  struct Group {
    // Destruction order matters: members destroy in reverse declaration,
    // so the pool (declared last) joins its workers BEFORE the arena is
    // freed — a fire-and-forget task touching the arena can still finish.
    std::unique_ptr<NodeArena> arena;
    std::unique_ptr<ThreadPool> pool;
  };

  /// Waits for every future, then rethrows `first` if set, else the first
  /// exception a future carried.
  static void wait_all(std::vector<std::future<void>>& futs,
                       std::exception_ptr first = nullptr);

  Topology topo_;
  std::vector<Group> groups_;
};

}  // namespace at::common
