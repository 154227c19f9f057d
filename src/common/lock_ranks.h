#ifndef LIGHT_COMMON_LOCK_RANKS_H_
#define LIGHT_COMMON_LOCK_RANKS_H_

// Central registry of lock ranks for the debug lock-rank checker (see
// common/mutex.h). The rule enforced at runtime in debug builds is strict:
// a thread may only acquire a mutex whose rank is STRICTLY GREATER than the
// rank of every mutex it already holds. Re-entrant acquisition of the same
// mutex always aborts. Any two mutexes that are ever held together must
// therefore appear here with ranks matching their nesting order, and any
// cycle in the lock graph becomes a deterministic single-thread abort
// instead of a rare cross-thread hang.
//
// Rank hierarchy (outermost/lowest first). Verified nesting edges as of PR 9:
//
//   | rank | mutex                              | nests into (higher ranks)    |
//   |------|------------------------------------|------------------------------|
//   | 10   | detail::SessionQueryState::mutex   | 35, 36, 37, 38, 60           |
//   | 20   | Session::init_mutex_               | 70, 71                       |
//   | 25   | Session::cache_mutex_              | (leaf)                       |
//   | 30   | Session::deadline_mutex_           | (leaf; timer thread drops it |
//   |      |                                    |  before taking init 20)      |
//   | 31   | Session::watchdog_mutex_           | (leaf; watchdog drops it     |
//   |      |                                    |  before taking init 20)      |
//   | 35   | Session::cancel_mutex_             | (leaf)                       |
//   | 36   | Session::inflight_mutex_           | (leaf)                       |
//   | 37   | Session::stats_mutex_              | (leaf)                       |
//   | 38   | Session::log_mutex_                | (leaf)                       |
//   | 40   | PoolQueryState::abort_mutex        | 50 (WorkerPool::Cancel)      |
//   | 41   | PoolQueryState::merge_mutex        | (leaf)                       |
//   | 42   | PoolQueryState::done_mutex         | (leaf)                       |
//   | 50   | MultiQueryQueue::mutex_            | (leaf)                       |
//   | 54   | GraphStore::bitmap_mutex_          | 70 (BitmapIndex::Build       |
//   |      |                                    |  publishes obs counters)     |
//   | 60   | net::Server::completions_mutex_    | (leaf)                       |
//   | 61   | net::Server::stats_mutex_          | (leaf)                       |
//   | 70   | obs::MetricsRegistry::mutex_       | (leaf)                       |
//   | 71   | obs::Tracer::mutex_                | (leaf)                       |
//
// Key chains this encodes:
//   - SessionQueryState::mutex (10) is held across FinalizeFromPool, which
//     records completion under cancel/inflight/stats/log (35-38) and may run
//     the user callback, which in net::Server enqueues under
//     completions_mutex_ (60).
//   - Session::init_mutex_ (20) is held while constructing the WorkerPool and
//     graph stats, which touch obs registries (70, 71).
//   - PoolQueryState::abort_mutex (40) is held in WorkerPool::Cancel while
//     calling MultiQueryQueue::Abort (50).
//   - The deadline-timer (30) and watchdog (31) threads must NOT hold their
//     wait mutex when they call back into the session (init 20); the checker
//     turns a regression there into an immediate abort.
//   - Session::EnsureBitmap under init 20 may call
//     GraphStore::SharedBitmap, which builds and caches under bitmap_mutex_
//     (54). It sits above the queue rank (50) and below the obs registries
//     (70) the bitmap build publishes into.

namespace light {
namespace lockrank {

inline constexpr int kSessionQueryState = 10;
inline constexpr int kSessionInit = 20;
inline constexpr int kSessionCache = 25;
inline constexpr int kSessionDeadline = 30;
inline constexpr int kSessionWatchdog = 31;
inline constexpr int kSessionCancel = 35;
inline constexpr int kSessionInflight = 36;
inline constexpr int kSessionStats = 37;
inline constexpr int kSessionLog = 38;
inline constexpr int kPoolAbort = 40;
inline constexpr int kPoolMerge = 41;
inline constexpr int kPoolDone = 42;
inline constexpr int kTaskQueue = 50;
inline constexpr int kStoreBitmap = 54;
inline constexpr int kNetCompletions = 60;
inline constexpr int kNetStats = 61;
inline constexpr int kObsMetrics = 70;
inline constexpr int kObsTrace = 71;

}  // namespace lockrank
}  // namespace light

#endif  // LIGHT_COMMON_LOCK_RANKS_H_
