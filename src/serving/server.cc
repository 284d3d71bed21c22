#include "serving/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/os.h"
#include "common/thread_pool.h"
#include "core/sharded_index.h"

namespace vitri::serving {

namespace {

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

const char* StateName(uint8_t state) {
  switch (state) {
    case 0:
      return "idle";
    case 1:
      return "running";
    case 2:
      return "stopping";
    default:
      return "stopped";
  }
}

}  // namespace

Server::Server(core::ShardedViTriIndex* index, ServerOptions options)
    : sharded_(index),
      options_(std::move(options)),
      queue_(options_.queue_capacity) {}

Server::~Server() {
  Status ignored = Shutdown();
  (void)ignored;
}

uint64_t Server::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status Server::Start() {
  {
    MutexLock lock(state_mu_);
    if (state_ != State::kIdle) {
      return Status::InvalidArgument("server already started");
    }
  }
  // A client vanishing mid-response must surface as EPIPE, not SIGPIPE.
  IgnoreSigpipe();
  Status st = StartListener();
  if (!st.ok()) {
    CloseFd(&listen_fd_);
    return st;
  }
  if (::pipe(wake_pipe_) != 0) {
    CloseFd(&listen_fd_);
    return Status::IoError("pipe: " + ErrnoString(errno));
  }
  if (KnnExecutorThreads() > 0) {
    knn_pool_ = std::make_unique<ThreadPool>(KnnExecutorThreads());
  }
  const size_t num_workers =
      options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  listener_ = std::thread([this] { ListenerLoop(); });
  {
    MutexLock lock(state_mu_);
    state_ = State::kRunning;
  }
  return Status::OK();
}

Status Server::StartListener() {
  const bool use_unix = !options_.unix_socket_path.empty();
  if (use_unix == (options_.tcp_port >= 0)) {
    return Status::InvalidArgument(
        "configure exactly one of unix_socket_path and tcp_port");
  }
  if (use_unix) {
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::memcpy(addr.sun_path, options_.unix_socket_path.c_str(),
                options_.unix_socket_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError("socket: " + ErrnoString(errno));
    }
    // A stale socket file from a crashed run would make bind fail.
    ::unlink(options_.unix_socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IoError("bind " + options_.unix_socket_path + ": " +
                             ErrnoString(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      return Status::IoError("socket: " + ErrnoString(errno));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IoError("bind 127.0.0.1:" +
                             std::to_string(options_.tcp_port) + ": " +
                             ErrnoString(errno));
    }
    sockaddr_in bound = {};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      return Status::IoError("getsockname: " + ErrnoString(errno));
    }
    bound_tcp_port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::IoError("listen: " + ErrnoString(errno));
  }
  return Status::OK();
}

void Server::ListenerLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Shutdown() wake.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // EINTR / transient accept failure.
    accepted_conns_.fetch_add(1, std::memory_order_relaxed);
    VITRI_METRIC_COUNTER("serving.connections")->Increment();
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    {
      MutexLock lock(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    raw->reader = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void Server::SessionLoop(Session* session) {
  for (;;) {
    Frame frame;
    if (!ReadOneFrame(session, &frame)) break;
    HandleFrame(session, std::move(frame));
  }
  session->read_closed.store(true, std::memory_order_release);
}

bool Server::ReadOneFrame(Session* session, Frame* frame) {
  uint8_t header[kFrameHeaderSize];
  Result<size_t> got = ReadFull(session->fd, header, sizeof(header));
  if (!got.ok() || *got == 0) return false;  // Error or clean EOF.
  if (*got < sizeof(header)) return false;   // Peer vanished mid-header.
  size_t consumed = 0;
  FrameDecodeStatus st =
      DecodeFrame(std::span<const uint8_t>(header, sizeof(header)), frame,
                  &consumed);
  if (st == FrameDecodeStatus::kOk) return true;  // Empty payload.
  if (st != FrameDecodeStatus::kNeedMoreData) {
    // Bad magic / type / flags / oversized length: no request id exists
    // to answer, so the only safe recovery is dropping the connection
    // (the stream is desynchronized from here on anyway).
    invalid_requests_.fetch_add(1, std::memory_order_relaxed);
    VITRI_METRIC_COUNTER("serving.invalid_frames")->Increment();
    return false;
  }
  const uint32_t payload_len = DecodeU32(header + 6);
  std::vector<uint8_t> buf(kFrameHeaderSize + payload_len);
  std::memcpy(buf.data(), header, kFrameHeaderSize);
  got = ReadFull(session->fd, buf.data() + kFrameHeaderSize, payload_len);
  if (!got.ok() || *got < payload_len) return false;
  return DecodeFrame(buf, frame, &consumed) == FrameDecodeStatus::kOk;
}

void Server::HandleFrame(Session* session, Frame frame) {
  VITRI_METRIC_COUNTER("serving.requests")->Increment();
  switch (frame.type) {
    case MessageType::kPingRequest: {
      Result<PingRequest> req = DecodePingRequest(frame.payload);
      if (!req.ok()) {
        invalid_requests_.fetch_add(1, std::memory_order_relaxed);
        RespondSimple(session, MessageType::kPingResponse, 0,
                      WireStatus::kInvalidRequest, req.status().message());
        return;
      }
      RespondSimple(session, MessageType::kPingResponse, req->request_id,
                    WireStatus::kOk, "");
      return;
    }
    case MessageType::kStatsRequest: {
      Result<StatsRequest> req = DecodeStatsRequest(frame.payload);
      if (!req.ok()) {
        invalid_requests_.fetch_add(1, std::memory_order_relaxed);
        RespondSimple(session, MessageType::kStatsResponse, 0,
                      WireStatus::kInvalidRequest, req.status().message());
        return;
      }
      StatsResponse resp;
      resp.head.request_id = req->request_id;
      resp.head.status = WireStatus::kOk;
      resp.json = BuildStatsJson();
      std::vector<uint8_t> payload;
      EncodeStatsResponse(resp, &payload);
      responses_ok_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(session, MessageType::kStatsResponse, payload);
      return;
    }
    case MessageType::kShutdownRequest: {
      Result<ShutdownRequest> req = DecodeShutdownRequest(frame.payload);
      if (!req.ok()) {
        invalid_requests_.fetch_add(1, std::memory_order_relaxed);
        RespondSimple(session, MessageType::kShutdownResponse, 0,
                      WireStatus::kInvalidRequest, req.status().message());
        return;
      }
      // Ack first so the client sees the response before the stream
      // closes; the actual stop runs on the owner's thread
      // (WaitForShutdownRequest), never on this session thread.
      RespondSimple(session, MessageType::kShutdownResponse, req->request_id,
                    WireStatus::kOk, "");
      RequestShutdown();
      return;
    }
    case MessageType::kKnnRequest:
    case MessageType::kInsertRequest: {
      WorkItem item;
      item.session = session;
      item.type = frame.type;
      const uint64_t now = NowMicros();
      uint32_t deadline_ms = 0;
      if (frame.type == MessageType::kKnnRequest) {
        Result<KnnRequest> req = DecodeKnnRequest(frame.payload);
        if (!req.ok()) {
          invalid_requests_.fetch_add(1, std::memory_order_relaxed);
          RespondSimple(session, MessageType::kKnnResponse, 0,
                        WireStatus::kInvalidRequest, req.status().message());
          return;
        }
        item.request_id = req->request_id;
        deadline_ms = req->deadline_ms;
        item.knn = std::move(*req);
      } else {
        Result<InsertRequest> req = DecodeInsertRequest(frame.payload);
        if (!req.ok()) {
          invalid_requests_.fetch_add(1, std::memory_order_relaxed);
          RespondSimple(session, MessageType::kInsertResponse, 0,
                        WireStatus::kInvalidRequest, req.status().message());
          return;
        }
        item.request_id = req->request_id;
        deadline_ms = req->deadline_ms;
        item.insert = std::move(*req);
      }
      item.enqueue_us = now;
      item.deadline_us =
          deadline_ms == 0 ? 0 : now + uint64_t{deadline_ms} * 1000;
      const MessageType response_type = ResponseTypeFor(frame.type);
      const uint64_t request_id = item.request_id;
      if (!queue_.TryPush(std::move(item))) {
        // Typed rejection — the protocol's admission-control contract.
        if (queue_.closed()) {
          rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
          VITRI_METRIC_COUNTER("serving.rejected.shutting_down")->Increment();
          RespondSimple(session, response_type, request_id,
                        WireStatus::kShuttingDown, "server is shutting down");
        } else {
          rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
          VITRI_METRIC_COUNTER("serving.rejected.overloaded")->Increment();
          RespondSimple(session, response_type, request_id,
                        WireStatus::kOverloaded, "request queue is full");
        }
        return;
      }
      admitted_.fetch_add(1, std::memory_order_relaxed);
      VITRI_METRIC_COUNTER("serving.admitted")->Increment();
      VITRI_METRIC_GAUGE("serving.queue.depth")
          ->Set(static_cast<int64_t>(queue_.size()));
      Hook("session.enqueued");
      return;
    }
    default: {
      // A response frame sent to the server (valid type, wrong
      // direction).
      invalid_requests_.fetch_add(1, std::memory_order_relaxed);
      RespondSimple(session, ResponseTypeFor(frame.type), 0,
                    WireStatus::kInvalidRequest,
                    std::string("unexpected frame: ") +
                        MessageTypeName(frame.type));
      return;
    }
  }
}

void Server::WorkerLoop() {
  WorkItem item;
  while (queue_.Pop(&item)) {
    Hook("worker.dequeue");
    VITRI_METRIC_HISTOGRAM("serving.queue.wait_us")
        ->Record(NowMicros() - item.enqueue_us);
    VITRI_METRIC_GAUGE("serving.queue.depth")
        ->Set(static_cast<int64_t>(queue_.size()));
    if (item.deadline_us != 0 && NowMicros() > item.deadline_us) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      VITRI_METRIC_COUNTER("serving.deadline_exceeded")->Increment();
      RespondSimple(item.session, ResponseTypeFor(item.type), item.request_id,
                    WireStatus::kDeadlineExceeded,
                    "deadline expired before execution");
      continue;
    }
    Hook("worker.execute");
    const uint64_t start = NowMicros();
    if (item.type == MessageType::kKnnRequest) {
      HandleKnn(std::move(item));
    } else {
      HandleInsert(std::move(item));
    }
    VITRI_METRIC_HISTOGRAM("serving.request.latency_us")
        ->Record(NowMicros() - start);
  }
}

void Server::HandleKnn(WorkItem item) {
  KnnResponse resp;
  resp.head.request_id = item.request_id;
  const bool traced =
      options_.trace_every != 0 &&
      knn_seq_.fetch_add(1, std::memory_order_relaxed) %
              options_.trace_every ==
          0;
  std::vector<core::QueryTrace> traces;
  core::ShardedViTriIndex::Deadline deadline;
  if (item.deadline_us != 0) {
    // NowMicros() counts steady-clock microseconds since its epoch.
    deadline = std::chrono::steady_clock::time_point(
        std::chrono::microseconds(item.deadline_us));
  }
  Result<std::vector<std::vector<core::VideoMatch>>> r = sharded_->BatchKnn(
      item.knn.queries, item.knn.k, item.knn.method, knn_pool_.get(),
      nullptr, traced ? &traces : nullptr, deadline);
  if (r.ok()) {
    resp.head.status = WireStatus::kOk;
    resp.results = std::move(*r);
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
    if (traced) {
      MutexLock lock(trace_mu_);
      for (const core::QueryTrace& t : traces) {
        recent_traces_.push_back(t.ToJson());
      }
      while (recent_traces_.size() > options_.max_traces) {
        recent_traces_.pop_front();
      }
    }
  } else if (r.status().IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    VITRI_METRIC_COUNTER("serving.deadline_exceeded")->Increment();
    resp.head.status = WireStatus::kDeadlineExceeded;
    resp.error = r.status().message();
  } else {
    resp.head.status = r.status().IsInvalidArgument()
                           ? WireStatus::kInvalidRequest
                           : WireStatus::kInternalError;
    resp.error = r.status().ToString();
  }
  std::vector<uint8_t> payload;
  EncodeKnnResponse(resp, &payload);
  WriteResponse(item.session, MessageType::kKnnResponse, payload);
}

void Server::HandleInsert(WorkItem item) {
  const Status st = sharded_->Insert(
      item.insert.video_id, item.insert.num_frames, item.insert.vitris);
  if (st.ok()) {
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
    RespondSimple(item.session, MessageType::kInsertResponse, item.request_id,
                  WireStatus::kOk, "");
  } else {
    RespondSimple(item.session, MessageType::kInsertResponse, item.request_id,
                  st.IsInvalidArgument() ? WireStatus::kInvalidRequest
                                         : WireStatus::kInternalError,
                  st.ToString());
  }
}

void Server::WriteResponse(Session* session, MessageType type,
                           std::span<const uint8_t> payload) {
  std::vector<uint8_t> wire;
  EncodeFrame(type, payload, &wire);
  MutexLock lock(session->write_mu);
  if (session->fd < 0) return;
  Status st = WriteFull(session->fd, wire.data(), wire.size());
  if (!st.ok()) {
    // The peer is gone; the request was still executed and the drop is
    // observable here. Nothing to unwind.
    VITRI_METRIC_COUNTER("serving.write_errors")->Increment();
  }
}

void Server::RespondSimple(Session* session, MessageType response_type,
                           uint64_t request_id, WireStatus status,
                           std::string_view message) {
  ResponseHead head;
  head.request_id = request_id;
  head.status = status;
  std::vector<uint8_t> payload;
  EncodeSimpleResponse(head, message, &payload);
  if (status == WireStatus::kOk) {
    responses_ok_.fetch_add(1, std::memory_order_relaxed);
  }
  WriteResponse(session, response_type, payload);
}

std::string Server::BuildStatsJson() {
  json::JsonWriter w;
  w.BeginObject();
  w.Key("server");
  w.BeginObject();
  {
    MutexLock lock(state_mu_);
    w.Key("state");
    w.String(StateName(static_cast<uint8_t>(state_)));
  }
  w.Key("queue_depth");
  w.Uint(queue_.size());
  w.Key("queue_capacity");
  w.Uint(queue_.capacity());
  w.Key("workers");
  w.Uint(options_.num_workers == 0 ? 1 : options_.num_workers);
  w.Key("knn_threads");
  w.Uint(KnnExecutorThreads());
  w.Key("connections");
  w.Uint(accepted_conns_.load(std::memory_order_relaxed));
  w.Key("admitted");
  w.Uint(admitted_.load(std::memory_order_relaxed));
  w.Key("rejected_overloaded");
  w.Uint(rejected_overloaded_.load(std::memory_order_relaxed));
  w.Key("rejected_shutting_down");
  w.Uint(rejected_shutdown_.load(std::memory_order_relaxed));
  w.Key("deadline_exceeded");
  w.Uint(deadline_exceeded_.load(std::memory_order_relaxed));
  w.Key("invalid_requests");
  w.Uint(invalid_requests_.load(std::memory_order_relaxed));
  w.Key("responses_ok");
  w.Uint(responses_ok_.load(std::memory_order_relaxed));
  w.Key("index");
  sharded_->WriteStatsJson(&w);
  w.EndObject();
  w.Key("metrics");
  w.RawValue(metrics::Registry::Instance().ToJson());
  w.Key("recent_traces");
  w.BeginArray();
  {
    MutexLock lock(trace_mu_);
    for (const std::string& t : recent_traces_) w.RawValue(t);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void Server::RequestShutdown() {
  {
    MutexLock lock(state_mu_);
    shutdown_requested_ = true;
  }
  state_cv_.NotifyAll();
}

bool Server::WaitForShutdownRequest(uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  MutexLock lock(state_mu_);
  while (!shutdown_requested_) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    state_cv_.WaitFor(lock,
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now) +
                          std::chrono::milliseconds(1));
  }
  return true;
}

Status Server::Shutdown() {
  {
    MutexLock lock(state_mu_);
    if (state_ == State::kIdle) {
      state_ = State::kStopped;
      return Status::OK();
    }
    if (state_ == State::kStopped) return Status::OK();
    if (state_ == State::kStopping) {
      while (state_ != State::kStopped) state_cv_.Wait(lock);
      return Status::OK();
    }
    state_ = State::kStopping;
  }
  // 1. Stop admission: every TryPush from here fails, so sessions answer
  //    new work with ShuttingDown while admitted work keeps draining.
  queue_.Close();
  // 2. Stop accepting: wake the listener's poll and join it, so no new
  //    session can appear below.
  if (wake_pipe_[1] >= 0) {
    const uint8_t b = 0;
    Status ignored = WriteFull(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
  if (listener_.joinable()) listener_.join();
  // 3. Drain: Pop returns queued items until closed-and-empty, so every
  //    admitted request is executed and answered before workers exit.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  //    With no worker left to submit to it, the knn executor is idle.
  knn_pool_.reset();
  // 4. Close sessions. SHUT_RD (not RDWR) so a reader blocked in read()
  //    sees EOF while its final inline response can still flush; fds are
  //    closed only after the readers are joined, so no worker or reader
  //    can race the close.
  {
    MutexLock lock(sessions_mu_);
    for (std::unique_ptr<Session>& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RD);
    }
    for (std::unique_ptr<Session>& s : sessions_) {
      if (s->reader.joinable()) s->reader.join();
      CloseFd(&s->fd);
    }
  }
  CloseFd(&listen_fd_);
  CloseFd(&wake_pipe_[0]);
  CloseFd(&wake_pipe_[1]);
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
  // 5. Make acknowledged inserts durable past the group-commit window.
  Status st = Status::OK();
  if (options_.checkpoint_on_shutdown && sharded_->durable()) {
    st = sharded_->Checkpoint();
  }
  {
    MutexLock lock(state_mu_);
    state_ = State::kStopped;
  }
  state_cv_.NotifyAll();
  return st;
}

}  // namespace vitri::serving
