#ifndef VITRI_SERVING_SERVER_H_
#define VITRI_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotated_lock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/index.h"
#include "serving/bounded_queue.h"
#include "serving/protocol.h"

namespace vitri::core {
class ShardedViTriIndex;
}  // namespace vitri::core

namespace vitri::serving {

/// Configuration of a vitrid server instance.
struct ServerOptions {
  /// Listen on a unix-domain socket at this path (created on Start,
  /// unlinked on Shutdown). Mutually exclusive with tcp_port.
  std::string unix_socket_path;
  /// Listen on 127.0.0.1:<port> (0 = kernel-assigned; read it back via
  /// Server::tcp_port()). -1 disables TCP.
  int tcp_port = -1;
  /// Admission control: work requests beyond this many queued are
  /// rejected with WireStatus::kOverloaded.
  size_t queue_capacity = 256;
  /// Worker threads executing queued Knn/Insert requests.
  size_t num_workers = 4;
  /// Intra-request parallelism: the size of the one executor every
  /// request's (query, shard) tasks share, built by Start() and joined
  /// by Shutdown(). Defaults to the machine's hardware threads, so a
  /// query's shards are scanned in parallel; stats report the size
  /// actually built as server.knn_threads. 0 or 1 builds none and runs
  /// each request's tasks inline on its worker; the request-level
  /// workers above are then the only concurrency axis.
  size_t knn_threads = ThreadPool::HardwareThreads();
  /// Record a per-stage QueryTrace for every Nth Knn request (0 = off)
  /// and keep the most recent `max_traces` of them for the stats reply.
  size_t trace_every = 0;
  size_t max_traces = 8;
  /// On a durable index, fold the WAL into a fresh checkpoint
  /// generation (core/recovery.cc) as the last step of Shutdown().
  bool checkpoint_on_shutdown = true;
  /// Test seam mirroring DurabilityOptions::crash_hook: called with a
  /// named point on the request path ("session.enqueued",
  /// "worker.dequeue", "worker.execute"). Production leaves it empty;
  /// the lifecycle tests use it to hold a worker at a known point.
  std::function<void(std::string_view point)> stage_hook;
};

/// `vitrid` — a long-lived server around one ShardedViTriIndex (DESIGN.md
/// §15); an unsharded deployment is simply num_shards = 1.
///
/// Threading model: one listener thread accepts connections; each
/// connection gets a session reader thread that decodes frames and
/// answers the admin plane (ping/stats/shutdown) inline; work requests
/// (knn/insert) pass through a bounded queue to `num_workers` worker
/// threads. A worker answers a knn request with one
/// ShardedViTriIndex::BatchKnn call, whose (query, shard) tasks run on
/// the server's one `knn_threads` executor (shared by every worker) or,
/// without one, inline on the worker. Admission control, per-request
/// deadlines, and the drain on shutdown all emit *typed* wire statuses,
/// so a client can always tell "rejected" from "failed".
///
/// Request lifecycle guarantees:
///   * every frame read off a connection gets exactly one response
///     (admitted work is answered by a worker — even during shutdown,
///     which drains the queue before stopping — and rejected work is
///     answered immediately with Overloaded/ShuttingDown/Invalid);
///   * a request whose deadline has passed is answered
///     DeadlineExceeded without touching the index; a knn request's
///     deadline is re-checked before each of its (query, shard) tasks
///     starts;
///   * Shutdown() stops admission first, then drains workers, then
///     joins the knn executor, then closes sessions, then (durable
///     index + checkpoint_on_shutdown) checkpoints via the recovery
///     path, so acknowledged inserts are never lost behind a
///     group-commit window.
///
/// Shutdown() must not be called from a session/worker thread (it joins
/// them); in-band shutdown requests instead signal
/// WaitForShutdownRequest(), on which the owning thread (tools/vitrid.cc)
/// blocks.
class Server {
 public:
  Server(core::ShardedViTriIndex* index, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the configured endpoint and starts the listener and workers.
  Status Start() VITRI_EXCLUDES(state_mu_);

  /// Graceful stop: close admission, drain every queued/in-flight
  /// request, answer all of them, close sessions, checkpoint if
  /// configured. Idempotent; concurrent callers block until stopped.
  /// Returns the checkpoint status (OK when not durable / not
  /// configured).
  Status Shutdown() VITRI_EXCLUDES(state_mu_);

  /// True once a client sent a ShutdownRequest frame (or
  /// RequestShutdown() was called); blocks up to timeout_ms.
  bool WaitForShutdownRequest(uint32_t timeout_ms)
      VITRI_EXCLUDES(state_mu_);

  /// Marks shutdown as requested and wakes WaitForShutdownRequest
  /// waiters. Does not stop the server by itself.
  void RequestShutdown() VITRI_EXCLUDES(state_mu_);

  /// Bound TCP port (after Start with tcp_port >= 0), else -1.
  int tcp_port() const { return bound_tcp_port_; }
  const ServerOptions& options() const { return options_; }

  /// Point-in-time depth of the request queue (tests poll this).
  size_t queue_depth() const { return queue_.size(); }

  /// Monotonic microseconds (steady clock) — the time base of every
  /// deadline computation.
  static uint64_t NowMicros();

  /// The stats document served to `vitrid stats`: a "server" block
  /// (queue/admission/drain counters, index state), the process-wide
  /// metrics registry, and the most recent sampled query traces.
  std::string BuildStatsJson() VITRI_EXCLUDES(trace_mu_);

 private:
  enum class State : uint8_t { kIdle, kRunning, kStopping, kStopped };

  /// One accepted connection. Sessions are appended by the listener and
  /// kept alive (fd closed, object retained) until Shutdown joins them,
  /// so the raw Session* inside queued WorkItems can never dangle.
  struct Session {
    int fd = -1;
    std::thread reader;
    /// Serializes frame writes: worker responses and inline (admin)
    /// responses interleave on the same stream.
    Mutex write_mu;
    std::atomic<bool> read_closed{false};
  };

  /// A queued work request (knn or insert), decoded by the session
  /// reader; `deadline_us` is absolute (0 = none).
  struct WorkItem {
    Session* session = nullptr;
    MessageType type = MessageType::kKnnRequest;
    uint64_t request_id = 0;
    uint64_t deadline_us = 0;
    uint64_t enqueue_us = 0;
    KnnRequest knn;
    InsertRequest insert;
  };

  Status StartListener();
  void ListenerLoop();
  void SessionLoop(Session* session);
  void WorkerLoop();

  /// Reads one frame; returns false on clean EOF / error / shutdown.
  bool ReadOneFrame(Session* session, Frame* frame);
  void HandleFrame(Session* session, Frame frame);
  void HandleKnn(WorkItem item);
  void HandleInsert(WorkItem item);

  void WriteResponse(Session* session, MessageType type,
                     std::span<const uint8_t> payload);
  void RespondSimple(Session* session, MessageType response_type,
                     uint64_t request_id, WireStatus status,
                     std::string_view message);

  void Hook(std::string_view point) {
    if (options_.stage_hook) options_.stage_hook(point);
  }

  /// The size of the knn executor Start() builds; 0 = none (inline).
  size_t KnnExecutorThreads() const {
    return options_.knn_threads > 1 ? options_.knn_threads : 0;
  }

  core::ShardedViTriIndex* const sharded_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int bound_tcp_port_ = -1;
  /// Self-pipe waking the listener's poll() out of accept on shutdown.
  int wake_pipe_[2] = {-1, -1};
  std::thread listener_;
  std::vector<std::thread> workers_;
  /// The knn executor (null when KnnExecutorThreads() is 0); see
  /// knn_threads.
  std::unique_ptr<ThreadPool> knn_pool_;

  BoundedQueue<WorkItem> queue_;

  mutable Mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_
      VITRI_GUARDED_BY(sessions_mu_);

  mutable Mutex state_mu_;
  CondVar state_cv_;
  State state_ VITRI_GUARDED_BY(state_mu_) = State::kIdle;
  bool shutdown_requested_ VITRI_GUARDED_BY(state_mu_) = false;

  mutable Mutex trace_mu_;
  /// Most recent sampled query traces, pre-rendered to JSON.
  std::deque<std::string> recent_traces_ VITRI_GUARDED_BY(trace_mu_);
  std::atomic<uint64_t> knn_seq_{0};

  /// Server-block counters (also mirrored into the metrics registry as
  /// serving.* so `vitrid stats` exposes them both ways).
  std::atomic<uint64_t> accepted_conns_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_overloaded_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> invalid_requests_{0};
  std::atomic<uint64_t> responses_ok_{0};
};

}  // namespace vitri::serving

#endif  // VITRI_SERVING_SERVER_H_
