#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "api/spec.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "store/codec.h"
#include "store/session_codec.h"

namespace ppdm::net {

namespace {

using Clock = std::chrono::steady_clock;

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

/// An ingest body, decoded straight out of the connection's input buffer
/// into the doubles the session's RowBatch views. The full-row form is
/// [u64 rows][u64 cols][double array]; the tracked form is
/// [u64 rows][u64 array of tracked columns][double array], and its rows
/// are `columns.size()` wide.
struct IngestBody {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::vector<std::uint64_t> columns;  // the tracked form only
  std::vector<double> values;
};

/// Decodes either ingest form; `tracked` comes from the verb alone.
Result<IngestBody> DecodeIngestBody(std::string_view body, bool tracked) {
  store::Reader reader(body);
  IngestBody ingest;
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

// The answer to a request for a tenant the registry does not hold.
Status TenantNotOpen(std::uint64_t tenant) {
  return Status::NotFound(
      StrFormat("tenant %llu is not open (send an open frame first)",
                static_cast<unsigned long long>(tenant)));
}

/// Refuses a body sent to a verb that takes none.
Status NoBody(Verb verb, std::string_view body) {
  if (body.empty()) return Status::Ok();
  return Status::InvalidArgument(
      StrFormat("%s takes no body, got %zu byte(s)",
                VerbName(static_cast<std::uint32_t>(verb)).c_str(),
                body.size()));
}

/// The stats verb: the metrics exposition, and with the flag byte 0x01
/// also the span ring as Chrome trace JSON.
Result<std::string> HandleStats(std::string_view body) {
  const bool want_trace = body.size() == 1 && body[0] == '\x01';
  if (!body.empty() && !want_trace) {
    return Status::InvalidArgument("unknown stats request flags");
  }
  store::Writer writer;
  writer.PutString(obs::MetricsRegistry::Global().RenderText());
  if (want_trace) {
    writer.PutString(
        obs::RenderChromeTrace(obs::TraceRing::Global().Snapshot()));
  }
  return writer.Take();
}

}  // namespace

std::string TenantName(std::uint64_t tenant) {
  return StrFormat("t%llu", static_cast<unsigned long long>(tenant));
}

/// One live client connection, owned by the one loop that serves it.
struct Server::Connection {
  Socket sock;
  InputBuffer inbuf;
  /// When the latest read landed. Frames are answered after every read,
  /// so each complete frame in `inbuf` was completed by that read.
  Clock::time_point received_at;
  std::string outbuf;
  std::size_t out_pos = 0;
  bool close_after_flush = false;
  /// Set by CloseConnection; the loop drops the connection after the
  /// round.
  bool closed = false;

  bool has_unsent() const { return out_pos < outbuf.size(); }
};

/// One event-loop thread: its wake pipe, its connections, and the
/// sockets loop 0 has dealt it but it has not yet adopted.
struct Server::EventLoop {
  Socket wake_read;
  Socket wake_write;
  std::vector<std::unique_ptr<Connection>> connections;  // its thread only
  std::mutex dealt_mu;
  std::vector<Socket> dealt;  // guarded by dealt_mu
  std::thread thread;

  /// Async-signal-safe; a full pipe already guarantees a wakeup.
  void Wake() const {
    const char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_write.fd(), &byte, 1);
  }

  void Adopt(Socket sock) {
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(sock);
    connections.push_back(std::move(conn));
  }
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
      drain_deadline_closes_(obs::MetricsRegistry::Global().GetCounter(
          "ppdm_net_forced_closes_total", {{"reason", "drain_deadline"}})),
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
    spill_.emplace(std::move(store));
  }

  // No pool: a handler's engine primitives run inline on its loop.
  api::SessionRegistryOptions registry_options;
  registry_options.max_bytes = options_.registry_max_bytes;
  registry_options.spill = spill_.has_value() ? &*spill_ : nullptr;
  registry_ = std::make_unique<api::SessionRegistry>(registry_options);
  // A resumed daemon takes over the captures on disk; any other daemon
  // never serves them, and a tenant's first open discards its capture.
  if (options_.resume) PPDM_RETURN_IF_ERROR(registry_->AdoptCaptures());

  PPDM_ASSIGN_OR_RETURN(
      listener_, ListenTcp(options_.host, options_.port, /*backlog=*/128));
  PPDM_RETURN_IF_ERROR(SetNonBlocking(listener_.fd()));
  PPDM_ASSIGN_OR_RETURN(port_, BoundPort(listener_));

  const std::size_t num_loops = std::max<std::size_t>(options_.num_threads, 1);
  for (std::size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      return Status::IoError(StrFormat("pipe: %s", std::strerror(errno)));
    }
    loop->wake_read = Socket(pipe_fds[0]);
    loop->wake_write = Socket(pipe_fds[1]);
    PPDM_RETURN_IF_ERROR(SetNonBlocking(loop->wake_read.fd()));
    PPDM_RETURN_IF_ERROR(SetNonBlocking(loop->wake_write.fd()));
    loops_.push_back(std::move(loop));
  }
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    loop->thread = std::thread([this, &loop = *loop] { Loop(loop); });
  }
  return Status::Ok();
}

Server::~Server() { (void)Stop(); }

void Server::RequestStop() {
  draining_.store(true, std::memory_order_release);
  for (const std::unique_ptr<EventLoop>& loop : loops_) loop->Wake();
}

void Server::AwaitLoopExit() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  loop_cv_.wait(lock, [this] { return loops_exited_ == loops_.size(); });
}

Status Server::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return stop_status_;
  RequestStop();
  // Every request a loop read is answered before the loop exits.
  for (const std::unique_ptr<EventLoop>& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Drain: a resident tenant's capture is written, a spilled one's is
  // already current. The first failure is the stop status.
  for (const std::string& name : spill_.has_value()
                                     ? registry_->OpenNames()
                                     : std::vector<std::string>()) {
    const Result<std::uint64_t> captured = registry_->Checkpoint(name);
    if (!captured.ok()) {
      if (stop_status_.ok()) stop_status_ = captured.status();
      continue;
    }
    ++drained_checkpoints_;
    drain_checkpoints_metric_->Increment();
  }
  stopped_ = true;
  return stop_status_;
}

void Server::Loop(EventLoop& loop) {
  const bool listens = &loop == loops_.front().get();
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  std::optional<Clock::time_point> drain_deadline;
  while (true) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !drain_deadline) {
      drain_deadline = Clock::now() + kDrainDeadline;
    }
    {
      std::lock_guard<std::mutex> lock(loop.dealt_mu);
      for (Socket& sock : loop.dealt) loop.Adopt(std::move(sock));
      loop.dealt.clear();
    }

    fds.clear();
    polled.clear();
    fds.push_back({loop.wake_read.fd(), POLLIN, 0});
    const bool accepting =
        listens && !draining &&
        open_connections_.load(std::memory_order_acquire) < kMaxConnections;
    if (accepting) fds.push_back({listener_.fd(), POLLIN, 0});

    // A connection with unsent bytes waits for POLLOUT instead of being
    // read: that is the read pause. Drain exit needs every outbox flushed
    // or the drain deadline passed; no request is ever in flight between
    // rounds.
    bool pending_writes = false;
    for (const std::unique_ptr<Connection>& conn : loop.connections) {
      short events = 0;
      if (conn->has_unsent()) {
        events = POLLOUT;
        pending_writes = true;
      } else if (!draining && !conn->close_after_flush) {
        events = POLLIN;
      }
      if (events == 0) continue;
      fds.push_back({conn->sock.fd(), events, 0});
      polled.push_back(conn.get());
    }

    if (draining && !pending_writes) break;
    if (draining && Clock::now() >= *drain_deadline) {
      // A peer that never reads forfeits the responses it is owed.
      for (const std::unique_ptr<Connection>& conn : loop.connections) {
        if (!conn->has_unsent()) continue;
        CloseConnection(*conn);
        drain_deadline_closes_->Increment();
      }
      break;
    }

    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             draining ? kDrainPollMs : kIdlePollMs);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char buf[256];
      while (::read(loop.wake_read.fd(), buf, sizeof(buf)) > 0) {
      }
    }
    ++index;
    if (accepting) {
      if (fds[index].revents & POLLIN) AcceptReady();
      ++index;
    }

    for (std::size_t c = 0; c < polled.size(); ++c, ++index) {
      Connection& conn = *polled[c];
      const short revents = fds[index].revents;
      if (revents == 0) continue;
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (revents & POLLOUT) {
        FlushWrites(conn);
        // A drained outbox ends the pause: answer the frames it held up.
        if (!conn.has_unsent()) ParseFrames(conn);
      }
      if (revents & (POLLIN | POLLHUP)) ServeReadable(conn);
    }
    loop.connections.erase(
        std::remove_if(loop.connections.begin(), loop.connections.end(),
                       [](const std::unique_ptr<Connection>& conn) {
                         return conn->closed;
                       }),
        loop.connections.end());
  }

  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    ++loops_exited_;
  }
  loop_cv_.notify_all();
}

void Server::AcceptReady() {
  while (open_connections_.load(std::memory_order_acquire) < kMaxConnections) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN/EWOULDBLOCK: backlog drained; anything else waits for the
      // next poll round too (a dying peer must not kill the loop).
      return;
    }
    Socket sock(fd);
    if (!SetNonBlocking(fd).ok()) continue;  // sock closes on scope exit
    SetNoDelay(fd);
    open_connections_.fetch_add(1, std::memory_order_acq_rel);
    connections_total_->Increment();
    connections_open_->Add(1);
    EventLoop& target = *loops_[next_loop_];
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (&target == loops_.front().get()) {
      target.Adopt(std::move(sock));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(target.dealt_mu);
      target.dealt.push_back(std::move(sock));
    }
    target.Wake();
  }
}

void Server::ServeReadable(Connection& conn) {
  while (!conn.closed && !conn.close_after_flush && !conn.has_unsent() &&
         !draining_.load(std::memory_order_acquire)) {
    const auto [room, room_size] = conn.inbuf.Room(kMinReadRoom);
    const ssize_t n = ::read(conn.sock.fd(), room, room_size);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {  // peer closed, or a read error
      CloseConnection(conn);
      return;
    }
    conn.inbuf.Commit(static_cast<std::size_t>(n));
    bytes_read_->Increment(static_cast<std::uint64_t>(n));
    conn.received_at = Clock::now();
    ParseFrames(conn);
    // A short read emptied the socket; the next poll round reports more.
    if (static_cast<std::size_t>(n) < room_size) return;
  }
}

void Server::ParseFrames(Connection& conn) {
  while (!conn.closed && !conn.close_after_flush) {
    const std::string_view rest = conn.inbuf.unread();
    // HeaderBytesNeeded answers "wait for more" vs. "judge now".
    if (HeaderBytesNeeded(rest) > 0) return;
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
      conn.close_after_flush = true;
      EnqueueResponse(conn, request.ok() ? request.value() : FrameHeader{},
                      header.status());
      FlushWrites(conn);
      return;
    }
    if (rest.size() - kHeaderSize < header.value().body_length) return;
    const std::string_view body =
        rest.substr(kHeaderSize,
                    static_cast<std::size_t>(header.value().body_length));
    if (Status verified = VerifyBody(header.value(), body); !verified.ok()) {
      protocol_errors_->Increment();
      conn.close_after_flush = true;
      EnqueueResponse(conn, header.value(), verified);
      FlushWrites(conn);
      return;
    }
    Dispatch(conn, header.value(), body);
    conn.inbuf.Consume(kHeaderSize + body.size());
    FlushWrites(conn);
    // Unsent bytes pause the connection: the frames still buffered wait
    // for the loop to flush them (and then parse on), and no read runs.
    if (conn.has_unsent()) {
      read_pauses_->Increment();
      return;
    }
  }
}

void Server::Dispatch(Connection& conn, const FrameHeader& header,
                      std::string_view body) {
  verb_requests_[KnownVerb(header.verb) ? header.verb : 0]->Increment();
  // Stats and unknown verbs are cheap and change nothing: no job, no
  // spans. Framing is intact, so an unknown verb's connection lives on.
  if (!KnownVerb(header.verb) ||
      static_cast<Verb>(header.verb) == Verb::kStats) {
    EnqueueResponse(conn, header, Handle(header, body));
    return;
  }
  const std::string tenant_name = TenantName(header.tenant);
  jobs_->Increment();
  if (Status refused = EnqueueFault().Fire(); !refused.ok()) {
    shed_jobs_->Increment();
    EnqueueResponse(conn, header, refused);
    return;
  }

  // The request's root span opens at the read that completed the frame,
  // as do its service.queue wait and its ttl_ms deadline: a frame that
  // waited behind earlier frames on this loop has spent that time. A
  // nonzero client trace id wins so the caller can stitch our tree into
  // its own; otherwise mint one. The queue and run spans (and everything
  // under the handler) are children of the request span.
  const Clock::time_point received = conn.received_at;
  const std::uint64_t trace_id =
      header.trace_id != 0 ? header.trace_id : obs::NewTraceId();
  obs::ScopedTraceContext root(obs::TraceContext{trace_id, 0});
  obs::ScopedSpan request_span(
      "net.request", received, request_seconds_, &obs::TraceRing::Global(),
      obs::RenderLabelSet(
          {{"tenant", tenant_name}, {"verb", VerbName(header.verb)}}));
  const Result<std::string> result = [&]() -> Result<std::string> {
    obs::ScopedSpan("service.queue", received, queue_wait_seconds_).End();
    if (header.ttl_ms > 0 &&
        Clock::now() >= received + std::chrono::milliseconds(header.ttl_ms)) {
      expired_jobs_->Increment();
      return Status::DeadlineExceeded("request deadline passed before it ran");
    }
    obs::ScopedSpan run_span("service.run", run_seconds_);
    return Handle(header, body);
  }();
  // Expired and handler errors travel back as the envelope's Status. The
  // request span closes first, so a slow-request tree includes it.
  const double seconds = request_span.End();
  if (options_.slow_request_ms > 0.0 &&
      seconds * 1e3 >= options_.slow_request_ms) {
    slow_requests_->Increment();
    const std::string tree =
        obs::RenderSpanTree(obs::TraceRing::Global().Snapshot(), trace_id);
    std::fprintf(stderr, "[served] slow request (%.1f ms >= %.1f ms): %s\n%s",
                 seconds * 1e3, options_.slow_request_ms, tenant_name.c_str(),
                 tree.c_str());
    std::lock_guard<std::mutex> lock(slow_mu_);
    last_slow_tree_ = tree;
  }
  EnqueueResponse(conn, header, result);
}

std::string Server::LastSlowRequestTree() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return last_slow_tree_;
}

void Server::EnqueueResponse(Connection& conn, const FrameHeader& request,
                             const Result<std::string>& result) {
  const std::string_view payload =
      result.ok() ? std::string_view(result.value()) : std::string_view();
  std::string frame =
      EncodeFrame(request.verb, request.request_id, request.tenant,
                  /*ttl_ms=*/0, EncodeResponseBody(result.status(), payload));
  if (conn.outbuf.empty()) {
    conn.outbuf = std::move(frame);
  } else {
    conn.outbuf.append(frame);
  }
}

void Server::FlushWrites(Connection& conn) {
  while (conn.has_unsent()) {
    // MSG_NOSIGNAL: a client that resets with unread data must cost an
    // EPIPE on this connection, not a SIGPIPE that kills every tenant.
    const ssize_t n =
        ::send(conn.sock.fd(), conn.outbuf.data() + conn.out_pos,
               conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConnection(conn);  // broken pipe
      return;
    }
    conn.out_pos += static_cast<std::size_t>(n);
    bytes_written_->Increment(static_cast<std::uint64_t>(n));
  }
  conn.outbuf.clear();
  conn.out_pos = 0;
  if (conn.close_after_flush) CloseConnection(conn);
}

void Server::CloseConnection(Connection& conn) {
  if (conn.closed) return;
  conn.closed = true;
  conn.sock.Close();
  conn.outbuf.clear();
  conn.out_pos = 0;
  connections_open_->Add(-1);
  // Loop 0 stopped polling the listener at the cap; this frees a slot.
  if (open_connections_.fetch_sub(1, std::memory_order_acq_rel) ==
      kMaxConnections) {
    loops_.front()->Wake();
  }
}

Result<std::string> Server::Handle(const FrameHeader& header,
                                   std::string_view body) {
  const std::uint64_t tenant = header.tenant;
  switch (static_cast<Verb>(header.verb)) {
    case Verb::kOpen:
      return HandleOpen(tenant, body);
    case Verb::kIngest:
      return HandleIngest(tenant, body, /*tracked=*/false);
    case Verb::kIngestTracked:
      return HandleIngest(tenant, body, /*tracked=*/true);
    case Verb::kReconstruct:
      return HandleReconstruct(tenant, body);
    case Verb::kSnapshot:
      return HandleSnapshot(tenant, body);
    case Verb::kClose:
      return HandleClose(tenant, body);
    case Verb::kStats:
      return HandleStats(body);
  }
  return Status::InvalidArgument(
      StrFormat("unknown verb %s", VerbName(header.verb).c_str()));
}

Result<std::shared_ptr<api::DatasetSession>> Server::LookupTenant(
    std::uint64_t tenant) {
  Result<std::shared_ptr<api::DatasetSession>> session =
      registry_->TryLookup(TenantName(tenant));
  if (!session.ok() && session.status().code() == StatusCode::kNotFound) {
    return TenantNotOpen(tenant);
  }
  return session;
}

Result<std::string> Server::HandleOpen(std::uint64_t tenant,
                                       std::string_view body) {
  store::Reader reader(body);
  PPDM_ASSIGN_OR_RETURN(const api::DatasetSessionSpec spec,
                        store::DecodeDatasetSessionSpec(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the open body");
  }
  const std::string name = TenantName(tenant);

  bool resumed = true;
  std::shared_ptr<api::DatasetSession> session;
  Result<std::shared_ptr<api::DatasetSession>> looked =
      registry_->TryLookup(name);
  if (looked.ok()) {
    // Already open, or re-admitted from a capture the registry holds.
    // Open is idempotent either way, for the same spec.
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

Result<std::string> Server::HandleIngest(std::uint64_t tenant,
                                         std::string_view body, bool tracked) {
  // Decoded straight out of the input buffer into the doubles the
  // session's RowBatch views.
  PPDM_ASSIGN_OR_RETURN(const IngestBody decoded,
                        DecodeIngestBody(body, tracked));
  const auto& [rows, cols, columns, values] = decoded;
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

Result<std::string> Server::HandleReconstruct(std::uint64_t tenant,
                                              std::string_view body) {
  PPDM_RETURN_IF_ERROR(NoBody(Verb::kReconstruct, body));
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

Result<std::string> Server::HandleSnapshot(std::uint64_t tenant,
                                           std::string_view body) {
  PPDM_RETURN_IF_ERROR(NoBody(Verb::kSnapshot, body));
  if (!spill_.has_value()) {
    return Status::FailedPrecondition(
        "daemon has no checkpoint directory (start with --checkpoint-dir)");
  }
  const Result<std::uint64_t> captured =
      registry_->Checkpoint(TenantName(tenant));
  if (!captured.ok()) {
    return captured.status().code() == StatusCode::kNotFound
               ? TenantNotOpen(tenant)
               : captured.status();
  }
  store::Writer writer;
  writer.PutU64(captured.value());
  return writer.Take();
}

Result<std::string> Server::HandleClose(std::uint64_t tenant,
                                        std::string_view body) {
  PPDM_RETURN_IF_ERROR(NoBody(Verb::kClose, body));
  const std::string name = TenantName(tenant);
  if (!registry_->Close(name)) {
    return Status::NotFound(StrFormat(
        "tenant %llu is not open", static_cast<unsigned long long>(tenant)));
  }
  return std::string();
}

}  // namespace ppdm::net
