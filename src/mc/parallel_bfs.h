// The shared explicit-state exploration engine (PR 9): a level-synchronous
// parallel BFS with work-stealing, used by mc::check (PipelineModel),
// mc::explore (NADIR specs) and mc::check_repl_model.
//
// Design:
//  * Per-worker frontier arrays with steal-half: each worker owns this
//    level's chunk of nodes and claims them FIFO from the head; a worker
//    that runs dry steals the back half of a victim's remaining range.
//    Children always land in the expanding worker's next-level list.
//  * A barrier between levels. Level-synchrony is what makes the results
//    deterministic: every state is discovered at its true BFS distance, so
//    `distinct_states`, `transitions`, `quiescent_states` and `diameter`
//    are EXACT and thread-count-independent on runs that finish cleanly
//    (no cap, no violation). Capped or violating runs stop mid-level, so
//    only the verdict and the capped flag are stable there; counts are
//    lower-bounded by the cap.
//  * Seen-set = ShardedFingerprintSet: hash-compacted (fingerprint-only)
//    states behind striped locks, spillable to an mmap-backed disk store.
//  * First-violation-wins via a mutex-guarded claim; counterexample traces
//    come from per-worker parent-pointer pools (append-only, owner-written)
//    stitched into one action path at claim time, after the workers join.
//  * threads == 1 runs the exact serial BFS: one worker, FIFO claims, no
//    steals — byte-for-byte the pre-PR-9 checker's visit order, counters
//    and trace.
//
// The Model adapter concept:
//   using State  — copyable node payload;
//   using Action — transition id (stored in traces);
//   State initial() const;
//   std::pair<uint64_t,uint64_t> fingerprint(const State&) const;
//   std::string visit(const State&, bool& quiescent) const;
//       pop-time check; set `quiescent` for terminal states (counted);
//       non-empty return = state-attached violation (trace = path to s);
//   template <typename Sink> std::string expand(const State&, Sink&) const;
//       call sink.transition(action, std::move(next), violation) per
//       successor; stop when it returns false. A non-empty `violation`
//       claims a transition-attached violation (trace = path + action).
//       The returned string is a post-expansion state-attached violation
//       ("" normally; the NADIR explorer reports quiescence failures here).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/fingerprint_set.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace zenith::mc {

struct ParallelBfsOptions {
  std::size_t max_states = 3'000'000;
  double time_limit_seconds = 120.0;
  bool record_traces = false;
  /// Worker threads. 0 = default_bench_threads(); 1 = the serial BFS.
  std::size_t threads = 1;
  /// Spill directory for the seen-set (see ShardedFingerprintSet).
  std::string disk_store_path;
  /// Seen-set shards (power of two). More shards = less insert contention.
  std::size_t seen_shards = 64;
};

template <typename ActionT>
struct ParallelBfsResult {
  bool ok = true;
  bool capped = false;
  std::string violation;
  std::size_t distinct_states = 0;
  std::size_t transitions = 0;
  std::size_t quiescent_states = 0;
  std::size_t diameter = 0;
  double seconds = 0.0;
  std::size_t threads_used = 1;
  /// Actions from the initial state to the violation (record_traces only).
  std::vector<ActionT> trace;
};

namespace detail {

/// Generation-counted barrier; the last arriver runs `on_complete` before
/// releasing the cohort (used to swap frontier levels).
class LevelBarrier {
 public:
  explicit LevelBarrier(std::size_t n) : n_(n) {}

  template <typename F>
  void arrive_and_wait(F&& on_complete) {
    std::unique_lock<std::mutex> lock(mu_);
    std::uint64_t generation = generation_;
    if (++arrived_ == n_) {
      on_complete();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t n_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
};

inline constexpr std::int64_t kNoTrace = -1;
inline constexpr std::size_t kClaimChunk = 32;

inline std::int64_t pack_trace_ref(std::size_t worker, std::size_t index) {
  return static_cast<std::int64_t>((worker << 48) | index);
}
inline std::size_t trace_ref_worker(std::int64_t ref) {
  return static_cast<std::size_t>(ref) >> 48;
}
inline std::size_t trace_ref_index(std::int64_t ref) {
  return static_cast<std::size_t>(ref) & ((std::size_t{1} << 48) - 1);
}

template <typename Model>
ParallelBfsResult<typename Model::Action> explore(
    const Model& model, const ParallelBfsOptions& options) {
  using State = typename Model::State;
  using Action = typename Model::Action;

  auto started = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  ParallelBfsResult<Action> result;
  const std::size_t threads =
      options.threads == 0 ? default_bench_threads() : options.threads;
  result.threads_used = threads;

  struct Node {
    State state;
    std::int64_t trace = detail::kNoTrace;
  };
  struct TraceNode {
    std::int64_t parent;
    Action action;
  };
  // One level's per-worker work range: [head, tail) of `nodes` is
  // unclaimed. The owner claims FIFO chunks at head; thieves split the
  // remainder from the tail. Entries are only read/moved by the claimant.
  struct WorkerLevel {
    std::mutex mu;
    std::vector<Node> nodes;
    std::size_t head = 0;
    std::size_t tail = 0;
  };
  struct Worker {
    WorkerLevel level;
    std::vector<Node> next;  // next level, owner-only during a level
    std::vector<TraceNode> trace_pool;
    std::size_t transitions = 0;
    std::size_t quiescent_states = 0;
    std::size_t diameter = 0;
  };

  ShardedFingerprintSet::Options seen_options;
  seen_options.shards = options.seen_shards;
  seen_options.disk_store_path = options.disk_store_path;
  ShardedFingerprintSet seen(seen_options);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<Worker>());
  }

  std::atomic<std::size_t> distinct{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> capped{false};

  // First-violation-wins claim. `final_action` is set for
  // transition-attached violations and appended after the parent walk.
  std::mutex claim_mu;
  bool claimed = false;
  std::string claimed_violation;
  std::int64_t claimed_leaf = detail::kNoTrace;
  bool claimed_has_action = false;
  Action claimed_action{};

  auto claim = [&](std::string violation, std::int64_t leaf,
                   const Action* action) {
    std::lock_guard<std::mutex> lock(claim_mu);
    if (claimed) return;
    claimed = true;
    claimed_violation = std::move(violation);
    claimed_leaf = leaf;
    if (action != nullptr) {
      claimed_has_action = true;
      claimed_action = *action;
    }
    stop.store(true, std::memory_order_release);
  };

  // Seed the root.
  State root = model.initial();
  seen.insert(model.fingerprint(root));
  distinct.store(1, std::memory_order_relaxed);
  workers[0]->level.nodes.push_back(Node{std::move(root), detail::kNoTrace});
  workers[0]->level.tail = 1;

  std::size_t level = 0;
  bool done = false;
  detail::LevelBarrier barrier(threads);

  // The per-transition sink handed to Model::expand.
  struct Sink {
    const Model* model;
    const ParallelBfsOptions* options;
    Worker* self;
    std::size_t worker_index;
    ShardedFingerprintSet* seen;
    std::atomic<std::size_t>* distinct;
    std::atomic<bool>* stop;
    decltype(claim)* do_claim;
    std::int64_t node_trace;

    bool transition(const Action& action, State&& next,
                    const std::string& violation = {}) {
      ++self->transitions;
      if (!violation.empty()) {
        (*do_claim)(violation, node_trace, &action);
        return false;
      }
      if (seen->insert(model->fingerprint(next))) {
        distinct->fetch_add(1, std::memory_order_relaxed);
        std::int64_t ref = detail::kNoTrace;
        if (options->record_traces) {
          self->trace_pool.push_back(TraceNode{node_trace, action});
          ref = detail::pack_trace_ref(worker_index,
                                       self->trace_pool.size() - 1);
        }
        self->next.push_back(Node{std::move(next), ref});
      }
      return true;
    }
  };

  auto worker_body = [&](std::size_t w) {
    Worker& self = *workers[w];
    for (;;) {
      // Drain this level: own chunks FIFO, then steal-half.
      for (;;) {
        WorkerLevel* source = nullptr;
        std::size_t begin = 0;
        std::size_t end = 0;
        {
          WorkerLevel& own = self.level;
          std::lock_guard<std::mutex> lock(own.mu);
          if (own.head < own.tail) {
            source = &own;
            begin = own.head;
            end = std::min(own.tail, own.head + detail::kClaimChunk);
            own.head = end;
          }
        }
        if (source == nullptr && threads > 1) {
          for (std::size_t v = 1; v < threads && source == nullptr; ++v) {
            WorkerLevel& victim = workers[(w + v) % threads]->level;
            std::lock_guard<std::mutex> lock(victim.mu);
            std::size_t remaining = victim.tail - victim.head;
            if (remaining == 0) continue;
            // Steal the back half, leaving the owner its FIFO head.
            std::size_t take = (remaining + 1) / 2;
            source = &victim;
            begin = victim.tail - take;
            end = victim.tail;
            victim.tail = begin;
          }
        }
        if (source == nullptr) break;  // level drained (for this worker)

        for (std::size_t i = begin; i < end; ++i) {
          if (stop.load(std::memory_order_acquire)) break;
          if (distinct.load(std::memory_order_relaxed) >=
                  options.max_states ||
              elapsed() > options.time_limit_seconds) {
            capped.store(true, std::memory_order_relaxed);
            stop.store(true, std::memory_order_release);
            break;
          }
          Node& node = source->nodes[i];
          self.diameter = std::max(self.diameter, level);

          bool quiescent = false;
          std::string violation = model.visit(node.state, quiescent);
          if (quiescent) ++self.quiescent_states;
          if (!violation.empty()) {
            claim(std::move(violation), node.trace, nullptr);
            break;
          }

          Sink sink{&model,    &options, &self, w,     &seen,
                    &distinct, &stop,    &claim, node.trace};
          violation = model.expand(node.state, sink);
          if (!violation.empty()) {
            claim(std::move(violation), node.trace, nullptr);
            break;
          }
        }
        if (stop.load(std::memory_order_acquire)) break;
      }

      barrier.arrive_and_wait([&] {
        ++level;
        std::size_t total = 0;
        for (auto& worker : workers) {
          WorkerLevel& lvl = worker->level;
          lvl.nodes = std::move(worker->next);
          worker->next.clear();
          lvl.head = 0;
          lvl.tail = lvl.nodes.size();
          total += lvl.tail;
        }
        done = total == 0 || stop.load(std::memory_order_acquire);
      });
      if (done) return;
    }
  };

  parallel_for(threads, threads, worker_body);

  result.distinct_states = distinct.load(std::memory_order_relaxed);
  for (const auto& worker : workers) {
    result.transitions += worker->transitions;
    result.quiescent_states += worker->quiescent_states;
    result.diameter = std::max(result.diameter, worker->diameter);
  }
  result.capped = capped.load(std::memory_order_relaxed);
  if (claimed) {
    result.ok = false;
    result.capped = false;  // a violation ends the run, not the budget
    result.violation = std::move(claimed_violation);
    if (options.record_traces) {
      std::vector<Action> reversed;
      if (claimed_has_action) reversed.push_back(claimed_action);
      for (std::int64_t at = claimed_leaf; at != detail::kNoTrace;) {
        const TraceNode& entry =
            workers[detail::trace_ref_worker(at)]
                ->trace_pool[detail::trace_ref_index(at)];
        reversed.push_back(entry.action);
        at = entry.parent;
      }
      result.trace.assign(reversed.rbegin(), reversed.rend());
    }
  }
  result.seconds = elapsed();
  return result;
}

}  // namespace detail

/// Explores `model` breadth-first (see the file header).
template <typename Model>
ParallelBfsResult<typename Model::Action> parallel_bfs(
    const Model& model, const ParallelBfsOptions& options) {
  ParallelBfsResult<typename Model::Action> result =
      detail::explore(model, options);
  // explore() has freed the seen-set and the frontiers. glibc's dynamic
  // mmap threshold rises as large blocks are freed, so those blocks sit on
  // the heap, still mapped, and unmapping them would fall to whatever runs
  // next (process exit, in the benchmark). Hand them back now.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return result;
}

}  // namespace zenith::mc
