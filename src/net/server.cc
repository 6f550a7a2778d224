#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "api/spec.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "store/session_codec.h"

namespace ppdm::net {

/// An ingest body, decoded straight out of the connection's input buffer
/// into the doubles the session's RowBatch views. The full-row form is
/// [u64 rows][u64 cols][double array]; the tracked form is
/// [u64 rows][u64 array of tracked columns][double array], and its rows
/// are `columns.size()` wide.
struct IngestBody {
  bool tracked = false;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<std::uint64_t> columns;  // the tracked form only
  std::vector<double> values;
};

namespace {

/// Free space guaranteed in a connection's input buffer before each
/// read; frames larger than this assemble across reads.
constexpr std::size_t kMinReadRoom = 64 * 1024;

/// Poll timeouts: long when idle (the self-pipe delivers wakeups), short
/// while draining so the exit condition is re-checked promptly.
constexpr int kIdlePollMs = 200;
constexpr int kDrainPollMs = 20;

obs::Counter* NetCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

obs::Histogram* LatencyHistogram(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(
      name, obs::Histogram::LatencyBucketsSeconds());
}

fault::FaultPoint& EnqueueFault() {
  static fault::FaultPoint& point = fault::Point("service.enqueue");
  return point;
}

/// A connection's received, not yet parsed bytes. The loop reads straight
/// into the free tail, and parsing advances a read offset instead of
/// erasing the front on every pass. The storage is left uninitialized: a
/// growing std::string would zero every byte before read() overwrote it.
class InputBuffer {
 public:
  std::string_view unread() const {
    return std::string_view(data_.get() + begin_, end_ - begin_);
  }

  /// Makes at least `min_room` bytes free at the tail, compacting or
  /// growing first if needed, and returns the free tail.
  std::pair<char*, std::size_t> Room(std::size_t min_room) {
    if (capacity_ - end_ < min_room) {
      const std::size_t used = end_ - begin_;
      if (capacity_ - used >= min_room) {
        Compact();
      } else {
        const std::size_t capacity = std::max(2 * capacity_, used + min_room);
        std::unique_ptr<char[]> grown(new char[capacity]);
        if (used > 0) std::memcpy(grown.get(), data_.get() + begin_, used);
        data_ = std::move(grown);
        capacity_ = capacity;
        begin_ = 0;
        end_ = used;
      }
    }
    return {data_.get() + end_, capacity_ - end_};
  }

  /// Appends the `count` bytes just read into Room()'s tail.
  void Commit(std::size_t count) { end_ += count; }

  /// Drops `count` parsed bytes from the front. Moves the rest down only
  /// once everything is consumed (a free reset) or the offset passes half
  /// the capacity, so a burst of small frames costs no per-frame copy.
  void Consume(std::size_t count) {
    begin_ += count;
    if (begin_ == end_) {
      begin_ = end_ = 0;
    } else if (begin_ > capacity_ / 2) {
      Compact();
    }
  }

 private:
  void Compact() {
    if (begin_ == 0) return;
    std::memmove(data_.get(), data_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }

  std::unique_ptr<char[]> data_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Decodes either ingest form; `tracked` comes from the verb alone.
Result<IngestBody> DecodeIngestBody(std::string_view body, bool tracked) {
  store::Reader reader(body);
  IngestBody ingest;
  ingest.tracked = tracked;
  PPDM_ASSIGN_OR_RETURN(ingest.rows, reader.ReadU64());
  if (tracked) {
    PPDM_ASSIGN_OR_RETURN(ingest.columns, reader.ReadU64Array());
    ingest.cols = ingest.columns.size();
  } else {
    PPDM_ASSIGN_OR_RETURN(ingest.cols, reader.ReadU64());
  }
  PPDM_ASSIGN_OR_RETURN(ingest.values, reader.ReadDoubleArray());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the ingest body");
  }
  // Exact shape match, division-only so rows*cols can never overflow:
  // values.size() == rows*cols iff size/rows == cols && size%rows == 0.
  const std::size_t size = ingest.values.size();
  if (ingest.cols == 0 ||
      (ingest.rows == 0
           ? size != 0
           : (size / ingest.rows != ingest.cols || size % ingest.rows != 0))) {
    return Status::InvalidArgument(
        StrFormat("ingest shape %llux%llu does not match %zu values",
                  static_cast<unsigned long long>(ingest.rows),
                  static_cast<unsigned long long>(ingest.cols), size));
  }
  return ingest;
}

}  // namespace

std::string TenantName(std::uint64_t tenant) {
  return StrFormat("t%llu", static_cast<unsigned long long>(tenant));
}

/// One live client connection. The event-loop thread owns the socket, the
/// input buffer, and the parse/close state; the outbox is the one piece
/// workers touch (completion callbacks append responses), so it sits
/// behind its own mutex.
struct Server::Connection {
  Socket sock;

  // Event-loop thread only.
  InputBuffer inbuf;
  bool close_after_flush = false;
  bool paused = false;

  std::mutex mu;
  std::string outbuf;       // guarded by mu
  std::size_t out_pos = 0;  // guarded by mu

  /// Requests dispatched and not yet answered (paired with the server's
  /// global count); atomics because workers decrement on completion.
  std::atomic<std::size_t> in_flight{0};
  /// Set by CloseConnection so late completions drop their responses.
  std::atomic<bool> closed{false};
};

Server::Server(const ServerOptions& options)
    : options_(options),
      connections_total_(NetCounter("ppdm_net_connections_total")),
      connections_open_(
          obs::MetricsRegistry::Global().GetGauge("ppdm_net_connections_open")),
      protocol_errors_(NetCounter("ppdm_net_protocol_errors_total")),
      read_pauses_(NetCounter("ppdm_net_read_pauses_total")),
      bytes_read_(NetCounter("ppdm_net_bytes_read_total")),
      bytes_written_(NetCounter("ppdm_net_bytes_written_total")),
      drain_checkpoints_metric_(
          NetCounter("ppdm_net_drain_checkpoints_total")),
      request_seconds_(LatencyHistogram("ppdm_net_request_seconds")),
      slow_requests_(NetCounter("ppdm_net_slow_requests_total")),
      jobs_(NetCounter("ppdm_service_jobs_total")),
      shed_jobs_(NetCounter("ppdm_service_shed_jobs_total")),
      expired_jobs_(NetCounter("ppdm_service_expired_jobs_total")),
      queue_wait_seconds_(LatencyHistogram("ppdm_service_queue_wait_seconds")),
      run_seconds_(LatencyHistogram("ppdm_service_run_seconds")) {
  for (std::uint32_t v = 0; v <= kLastVerb; ++v) {
    verb_requests_[v] = obs::MetricsRegistry::Global().GetCounter(
        "ppdm_net_requests_total",
        {{"verb", v == 0 ? std::string("unknown") : VerbName(v)}});
  }
}

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  PPDM_RETURN_IF_ERROR(api::ValidateThreads(options.num_threads));
  // The constructor registers the shed and expired counters; the retry
  // ones join them so a chaos run's exposition shows every resilience
  // counter (as 0) even when nothing was shed or retried.
  retry::internal::TouchMetrics();
  std::unique_ptr<Server> server(new Server(options));
  PPDM_RETURN_IF_ERROR(server->Init());
  return server;
}

Status Server::Init() {
  if (!options_.checkpoint_dir.empty()) {
    PPDM_ASSIGN_OR_RETURN(store::SnapshotStore store,
                          store::SnapshotStore::Open(options_.checkpoint_dir));
    snapshots_.emplace(store);
    spill_.emplace(std::move(store));
  }

  if (options_.num_threads > 0) {
    pool_ = std::make_unique<engine::ThreadPool>(options_.num_threads);
  }

  api::SessionRegistryOptions registry_options;
  registry_options.max_bytes = options_.registry_max_bytes;
  registry_options.spill = spill_.has_value() ? &*spill_ : nullptr;
  registry_ = std::make_unique<api::SessionRegistry>(registry_options,
                                                     pool_.get());

  PPDM_ASSIGN_OR_RETURN(
      listener_, ListenTcp(options_.host, options_.port, /*backlog=*/128));
  PPDM_RETURN_IF_ERROR(SetNonBlocking(listener_.fd()));
  PPDM_ASSIGN_OR_RETURN(port_, BoundPort(listener_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IoError(
        StrFormat("pipe: %s", std::strerror(errno)));
  }
  wake_read_ = Socket(pipe_fds[0]);
  wake_write_ = Socket(pipe_fds[1]);
  PPDM_RETURN_IF_ERROR(SetNonBlocking(wake_read_.fd()));
  PPDM_RETURN_IF_ERROR(SetNonBlocking(wake_write_.fd()));

  loop_thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

Server::~Server() { (void)Stop(); }

void Server::RequestStop() {
  draining_.store(true, std::memory_order_release);
  // Async-signal-safe wakeup; a full pipe already guarantees a wakeup.
  const char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_write_.fd(), &byte, 1);
}

void Server::Wake() {
  const char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_write_.fd(), &byte, 1);
}

void Server::AwaitLoopExit() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  loop_cv_.wait(lock, [this] { return loop_exited_; });
}

Status Server::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return stop_status_;
  RequestStop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop normally exits with every dispatched request answered; only
  // a failed poll() leaves jobs running, and the loop was their only
  // submitter, so waiting them out is enough.
  while (global_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_status_ = CheckpointAll();
  stopped_ = true;
  return stop_status_;
}

Status Server::CheckpointAll() {
  drained_checkpoints_ = 0;
  if (!snapshots_.has_value()) return Status::Ok();
  Status first_failure = Status::Ok();
  for (const std::string& name : registry_->OpenNames()) {
    Result<std::shared_ptr<api::DatasetSession>> session =
        registry_->TryLookup(name);
    if (!session.ok()) {
      if (session.status().code() == StatusCode::kNotFound) continue;
      if (first_failure.ok()) first_failure = session.status();
      continue;
    }
    const std::string bytes = store::EncodeDatasetSession(*session.value());
    if (Status put = snapshots_->Put(name, bytes); !put.ok()) {
      if (first_failure.ok()) first_failure = put;
      continue;
    }
    ++drained_checkpoints_;
    drain_checkpoints_metric_->Increment();
  }
  return first_failure;
}

void Server::Loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);

    // Paused connections re-check their window each iteration (a worker
    // completing a request wakes the loop); buffered frames parse first.
    for (const std::shared_ptr<Connection>& conn : connections_) {
      if (conn->paused && !draining) ParseFrames(conn);
    }

    fds.clear();
    polled.clear();
    fds.push_back({wake_read_.fd(), POLLIN, 0});
    const bool accepting =
        !draining && connections_.size() < kMaxConnections;
    if (accepting) fds.push_back({listener_.fd(), POLLIN, 0});

    // Drain exit needs "no in-flight work AND every outbox flushed".
    // In-flight is loaded BEFORE the outbox scan: a completion appends its
    // response before decrementing, so a zero read here guarantees the
    // scan below sees every append — the reverse order could miss one.
    const bool no_in_flight =
        global_in_flight_.load(std::memory_order_acquire) == 0;

    bool pending_writes = false;
    for (const std::shared_ptr<Connection>& conn : connections_) {
      short events = 0;
      if (!draining && !conn->paused && !conn->close_after_flush) {
        events |= POLLIN;
      }
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->out_pos < conn->outbuf.size()) {
          events |= POLLOUT;
          pending_writes = true;
        }
      }
      if (events == 0) continue;
      fds.push_back({conn->sock.fd(), events, 0});
      polled.push_back(conn);
    }

    if (draining && no_in_flight && !pending_writes) break;

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             draining ? kDrainPollMs : kIdlePollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char buf[256];
      while (::read(wake_read_.fd(), buf, sizeof(buf)) > 0) {
      }
    }
    ++index;
    if (accepting) {
      if (fds[index].revents & POLLIN) AcceptReady();
      ++index;
    }

    for (std::size_t c = 0; c < polled.size(); ++c, ++index) {
      const std::shared_ptr<Connection>& conn = polled[c];
      const short revents = fds[index].revents;
      if (revents == 0 || conn->closed.load(std::memory_order_acquire)) {
        continue;
      }
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (revents & POLLOUT) FlushWrites(conn);
      if (conn->closed.load(std::memory_order_acquire)) continue;
      if (revents & (POLLIN | POLLHUP)) {
        if (ReadReady(conn)) {
          ParseFrames(conn);
        } else {
          CloseConnection(conn);
        }
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_exited_ = true;
  }
  loop_cv_.notify_all();
}

void Server::AcceptReady() {
  while (connections_.size() < kMaxConnections) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN/EWOULDBLOCK: backlog drained; anything else waits for the
      // next poll round too (a dying peer must not kill the loop).
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->sock = Socket(fd);
    if (!SetNonBlocking(fd).ok()) continue;  // conn closes on scope exit
    SetNoDelay(fd);
    connections_.push_back(std::move(conn));
    connections_total_->Increment();
    connections_open_->Add(1);
  }
}

bool Server::ReadReady(const std::shared_ptr<Connection>& conn) {
  while (true) {
    const auto [room, room_size] = conn->inbuf.Room(kMinReadRoom);
    const ssize_t n = ::read(conn->sock.fd(), room, room_size);
    if (n > 0) {
      conn->inbuf.Commit(static_cast<std::size_t>(n));
      bytes_read_->Increment(static_cast<std::uint64_t>(n));
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool Server::ShouldPause(const Connection& conn) const {
  if (conn.in_flight.load(std::memory_order_acquire) >= kConnectionWindow) {
    return true;
  }
  return options_.max_pending > 0 &&
         global_in_flight_.load(std::memory_order_acquire) >=
             options_.max_pending;
}

void Server::ParseFrames(const std::shared_ptr<Connection>& conn) {
  bool paused = false;
  while (!conn->close_after_flush) {
    if (ShouldPause(*conn)) {
      paused = true;
      break;
    }
    const std::string_view rest = conn->inbuf.unread();
    // HeaderBytesNeeded answers "wait for more" vs. "judge now".
    if (HeaderBytesNeeded(rest) > 0) break;
    Result<FrameHeader> header = DecodeHeader(rest, kDefaultMaxBodyBytes);
    if (!header.ok()) {
      // HeaderBytesNeeded returned 0, so this is never mere truncation —
      // every failure (bad magic, other version, oversized body) is a
      // poisoned stream: answer once, flush, close. An over-cap header
      // decodes whole without the cap, so that refusal still correlates
      // with its request.
      const Result<FrameHeader> request =
          DecodeHeader(rest, std::numeric_limits<std::uint64_t>::max());
      protocol_errors_->Increment();
      EnqueueResponse(conn, request.ok() ? request.value() : FrameHeader{},
                      header.status(), "");
      conn->close_after_flush = true;
      break;
    }
    if (rest.size() - kHeaderSize < header.value().body_length) break;
    const std::string_view body =
        rest.substr(kHeaderSize,
                    static_cast<std::size_t>(header.value().body_length));
    if (Status verified = VerifyBody(header.value(), body); !verified.ok()) {
      protocol_errors_->Increment();
      EnqueueResponse(conn, header.value(), verified, "");
      conn->close_after_flush = true;
      break;
    }
    // Dispatch copies what it keeps of the body before the bytes are
    // released.
    Dispatch(conn, header.value(), body);
    conn->inbuf.Consume(kHeaderSize + body.size());
  }
  if (paused && !conn->paused) read_pauses_->Increment();
  conn->paused = paused;
}

void Server::Dispatch(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& header, std::string_view body) {
  verb_requests_[KnownVerb(header.verb) ? header.verb : 0]->Increment();
  if (!KnownVerb(header.verb)) {
    // Framing is intact — the connection survives an unknown verb.
    EnqueueResponse(
        conn, header,
        Status::InvalidArgument(StrFormat(
            "unknown verb %s", VerbName(header.verb).c_str())),
        "");
    return;
  }
  if (static_cast<Verb>(header.verb) == Verb::kStats) {
    // Cheap and read-only: answered inline on the event loop, so stats
    // stay scrapeable even when the workers are saturated. The flag byte
    // 0x01 also appends the span ring as Chrome trace JSON.
    const bool want_trace = body.size() == 1 && body[0] == '\x01';
    if (!body.empty() && !want_trace) {
      EnqueueResponse(conn, header,
                      Status::InvalidArgument("unknown stats request flags"),
                      "");
      return;
    }
    EnqueueResponse(conn, header, Status::Ok(), [want_trace] {
      store::Writer writer;
      writer.PutString(obs::MetricsRegistry::Global().RenderText());
      if (want_trace) {
        writer.PutString(
            obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot()));
      }
      return writer.Take();
    }());
    return;
  }
  const std::string tenant_name = TenantName(header.tenant);
  jobs_->Increment();
  if (Status refused = EnqueueFault().Fire(); !refused.ok()) {
    shed_jobs_->Increment();
    EnqueueResponse(conn, header, refused, "");
    return;
  }

  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  global_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (header.ttl_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(header.ttl_ms);
  }
  // The request's root span: opened here, closed when the job answers
  // (possibly on a worker). A nonzero client trace id wins so the caller
  // can stitch our tree into its own; otherwise mint one.
  const std::uint64_t trace_id =
      header.trace_id != 0 ? header.trace_id : obs::NewTraceId();
  obs::PendingSpan request_span = obs::BeginSpan(
      "net.request", obs::TraceContext{trace_id, 0},
      obs::RenderLabelSet(
          {{"tenant", tenant_name}, {"verb", VerbName(header.verb)}}));
  const auto started = std::chrono::steady_clock::now();
  // The body leaves the input buffer here, in the one copy the job owns:
  // an ingest is decoded straight into the doubles its RowBatch views,
  // every other verb keeps its bytes.
  std::function<Result<std::string>()> handler;
  const auto verb = static_cast<Verb>(header.verb);
  if (verb == Verb::kIngest || verb == Verb::kIngestTracked) {
    handler = [this, tenant = header.tenant,
               ingest = DecodeIngestBody(body, verb == Verb::kIngestTracked)] {
      return HandleIngest(tenant, ingest);
    };
  } else {
    handler = [this, header, body = std::string(body)] {
      return HandleVerb(header, body);
    };
  }
  const auto queued = std::chrono::steady_clock::now();
  // The job captures `this`; safe because the pool is destroyed (joining
  // every queued job) before the members a job touches.
  auto job = [this, conn, header, handler = std::move(handler), deadline,
              started, queued, tenant_name, trace_id,
              request_span]() mutable {
    // The queue and run spans (and everything under the handler) are
    // children of the request span, whichever thread runs the job.
    obs::ScopedTraceContext adopt(
        obs::TraceContext{trace_id, request_span.span_id});
    obs::RecordSpan("service.queue", queued, std::chrono::steady_clock::now(),
                    queue_wait_seconds_);
    const Result<std::string> result = [&]() -> Result<std::string> {
      if (deadline.has_value() &&
          std::chrono::steady_clock::now() >= *deadline) {
        expired_jobs_->Increment();
        return Status::DeadlineExceeded("job deadline passed before it ran");
      }
      // The run span closes before the request span, so a slow-request
      // tree rendered below includes it.
      obs::ScopedSpan run_span("service.run", run_seconds_);
      return handler();
    }();
    // Expired and handler errors travel back as the envelope's Status.
    obs::EndSpan(&request_span);
    if (obs::TimingEnabled()) {
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      request_seconds_->Observe(seconds);
      if (options_.slow_request_ms > 0.0 &&
          seconds * 1e3 >= options_.slow_request_ms) {
        slow_requests_->Increment();
        const std::string tree = obs::RenderSpanTree(
            obs::TraceRing::Global().Snapshot(), trace_id);
        std::fprintf(stderr,
                     "[served] slow request (%.1f ms >= %.1f ms): %s\n%s",
                     seconds * 1e3, options_.slow_request_ms,
                     tenant_name.c_str(), tree.c_str());
        std::lock_guard<std::mutex> lock(slow_mu_);
        last_slow_tree_ = tree;
      }
    }
    EnqueueResponse(conn, header,
                    result.ok() ? Status::Ok() : result.status(),
                    result.ok() ? result.value() : std::string());
    conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    global_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    // A pool worker wakes the loop to flush; an inline job runs on the
    // loop thread, whose next round polls the pending outbox anyway.
    if (pool_ != nullptr) Wake();
  };
  if (pool_ == nullptr) {
    job();
  } else {
    pool_->Submit(std::move(job));
  }
}

std::string Server::LastSlowRequestTree() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return last_slow_tree_;
}

void Server::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& request, const Status& status,
                             std::string_view payload) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  const std::string frame =
      EncodeFrame(request.verb, request.request_id, request.tenant,
                  /*ttl_ms=*/0, EncodeResponseBody(status, payload));
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->outbuf.append(frame);
}

void Server::FlushWrites(const std::shared_ptr<Connection>& conn) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (conn->out_pos < conn->outbuf.size()) {
      // MSG_NOSIGNAL: a client that resets with unread data must cost an
      // EPIPE on this connection, not a SIGPIPE that kills every tenant.
      const ssize_t n =
          ::send(conn->sock.fd(), conn->outbuf.data() + conn->out_pos,
                 conn->outbuf.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        done = true;  // broken pipe: close below
        conn->close_after_flush = true;
        break;
      }
      conn->out_pos += static_cast<std::size_t>(n);
      bytes_written_->Increment(static_cast<std::uint64_t>(n));
    }
    if (conn->out_pos == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_pos = 0;
      done = true;
    }
  }
  if (done && conn->close_after_flush) CloseConnection(conn);
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  conn->sock.Close();
  connections_open_->Add(-1);
  for (auto it = connections_.begin(); it != connections_.end(); ++it) {
    if (it->get() == conn.get()) {
      connections_.erase(it);
      break;
    }
  }
}

Result<std::string> Server::HandleVerb(const FrameHeader& header,
                                       const std::string& body) {
  if (static_cast<Verb>(header.verb) != Verb::kOpen && !body.empty()) {
    return Status::InvalidArgument(
        StrFormat("%s takes no body, got %zu byte(s)",
                  VerbName(header.verb).c_str(), body.size()));
  }
  switch (static_cast<Verb>(header.verb)) {
    case Verb::kOpen:
      return HandleOpen(header.tenant, body);
    case Verb::kReconstruct:
      return HandleReconstruct(header.tenant);
    case Verb::kSnapshot:
      return HandleSnapshot(header.tenant);
    case Verb::kClose:
      return HandleClose(header.tenant);
    case Verb::kIngest:         // decoded in Dispatch, run by HandleIngest
    case Verb::kIngestTracked:  // likewise
    case Verb::kStats:          // answered inline in Dispatch
      break;
  }
  return Status::Internal(
      StrFormat("verb %s reached the worker path",
                VerbName(header.verb).c_str()));
}

Result<std::shared_ptr<api::DatasetSession>> Server::LookupTenant(
    std::uint64_t tenant) {
  Result<std::shared_ptr<api::DatasetSession>> session =
      registry_->TryLookup(TenantName(tenant));
  if (!session.ok() && session.status().code() == StatusCode::kNotFound) {
    return Status::NotFound(StrFormat(
        "tenant %llu is not open (send an open frame first)",
        static_cast<unsigned long long>(tenant)));
  }
  return session;
}

Result<std::string> Server::HandleOpen(std::uint64_t tenant,
                                       const std::string& body) {
  store::Reader reader(body);
  PPDM_ASSIGN_OR_RETURN(const api::DatasetSessionSpec spec,
                        store::DecodeDatasetSessionSpec(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the open body");
  }
  const std::string name = TenantName(tenant);

  const std::vector<std::string> open = registry_->OpenNames();
  const bool known = std::binary_search(open.begin(), open.end(), name);
  if (!known && !options_.resume && snapshots_.has_value() &&
      snapshots_->Contains(name)) {
    // A fresh (non-resume) daemon must not silently resurrect a previous
    // life's capture: the first open of the tenant supersedes it.
    PPDM_RETURN_IF_ERROR(snapshots_->Delete(name));
  }

  bool resumed = true;
  std::shared_ptr<api::DatasetSession> session;
  Result<std::shared_ptr<api::DatasetSession>> looked =
      registry_->TryLookup(name);
  if (looked.ok()) {
    // Already open this life, or re-admitted from a capture (the resume
    // path). Open is idempotent either way, for the same spec.
    session = std::move(looked.value());
  } else if (looked.status().code() == StatusCode::kNotFound) {
    Result<std::shared_ptr<api::DatasetSession>> opened =
        registry_->Open(name, spec);
    if (opened.ok()) {
      session = std::move(opened.value());
      resumed = false;
    } else if (opened.status().code() == StatusCode::kFailedPrecondition) {
      // Lost an open race against a concurrent request for the same
      // tenant; serve the winner's session.
      PPDM_ASSIGN_OR_RETURN(session, registry_->TryLookup(name));
    } else {
      return opened.status();
    }
  } else {
    return looked.status();  // corrupt or unreadable capture
  }
  if (resumed) {
    // A reopen that asks for other attributes, intervals or noise must
    // not be served the old ones.
    store::Writer requested;
    store::EncodeDatasetSessionSpec(spec, &requested);
    store::Writer current;
    store::EncodeDatasetSessionSpec(session->spec(), &current);
    if (requested.bytes() != current.bytes()) {
      return Status::FailedPrecondition(StrFormat(
          "tenant %llu is open with a different spec (close it first)",
          static_cast<unsigned long long>(tenant)));
    }
  }

  store::Writer writer;
  writer.PutU8(resumed ? 1 : 0);
  writer.PutU64(session->record_count());
  return writer.Take();
}

Result<std::string> Server::HandleIngest(
    std::uint64_t tenant, const Result<IngestBody>& decoded) {
  PPDM_RETURN_IF_ERROR(decoded.status());
  const auto& [tracked, rows, cols, columns, values] = decoded.value();
  PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> session,
                        LookupTenant(tenant));
  const std::size_t width = session->spec().schema.NumFields();
  // A tracked row may not be wider than the schema it was cut from.
  if (tracked ? cols > width : cols != width) {
    return Status::InvalidArgument(
        StrFormat("ingest rows are %llu wide, tenant schema has %zu fields",
                  static_cast<unsigned long long>(cols), width));
  }
  if (tracked) {
    // The spec of the very session this batch folds into: a tenant that
    // another connection closed and reopened with other columns refuses
    // rows cut for the old ones.
    const std::vector<api::AttributeSpec>& attributes =
        session->spec().attributes;
    bool same = columns.size() == attributes.size();
    for (std::size_t a = 0; same && a < columns.size(); ++a) {
      same = columns[a] == attributes[a].column;
    }
    if (!same) {
      return Status::FailedPrecondition(StrFormat(
          "tracked columns differ from tenant %llu's spec (reopen it)",
          static_cast<unsigned long long>(tenant)));
    }
  }
  if (rows > 0) {
    const data::RowBatch batch(values.data(),
                               static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols));
    PPDM_RETURN_IF_ERROR(tracked ? session->IngestTracked(batch)
                                 : session->Ingest(batch));
  }
  store::Writer writer;
  writer.PutU64(session->record_count());
  return writer.Take();
}

Result<std::string> Server::HandleReconstruct(std::uint64_t tenant) {
  PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> session,
                        LookupTenant(tenant));
  PPDM_ASSIGN_OR_RETURN(
      const std::vector<reconstruct::Reconstruction> estimates,
      session->ReconstructAll());
  store::Writer writer;
  writer.PutU64(estimates.size());
  for (const reconstruct::Reconstruction& estimate : estimates) {
    writer.PutU64(estimate.iterations);
    writer.PutU64(estimate.sample_count);
    writer.PutDoubleArray(estimate.masses);
  }
  return writer.Take();
}

Result<std::string> Server::HandleSnapshot(std::uint64_t tenant) {
  if (!snapshots_.has_value()) {
    return Status::FailedPrecondition(
        "daemon has no checkpoint directory (start with --checkpoint-dir)");
  }
  PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> session,
                        LookupTenant(tenant));
  const std::string bytes = store::EncodeDatasetSession(*session);
  PPDM_RETURN_IF_ERROR(snapshots_->Put(TenantName(tenant), bytes));
  store::Writer writer;
  writer.PutU64(bytes.size());
  return writer.Take();
}

Result<std::string> Server::HandleClose(std::uint64_t tenant) {
  const std::string name = TenantName(tenant);
  if (!registry_->Close(name)) {
    return Status::NotFound(StrFormat(
        "tenant %llu is not open", static_cast<unsigned long long>(tenant)));
  }
  return std::string();
}

}  // namespace ppdm::net
