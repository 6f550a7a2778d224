// Async job front of the serving API: a server loop submits
// reconstruction / perturbation / training jobs and interleaves them,
// instead of blocking on each engine call in turn.
//
// api::Service owns the engine thread pool. Submit(job) enqueues the job
// on the pool's request queue and returns a JobHandle<T> immediately; the
// handle delivers the job's Result<T> via Poll() / Wait() / OnComplete().
// Jobs must be self-contained callables returning Result<T> — errors
// travel through the Result, never as exceptions.
//
// Scheduling model: each job occupies one pool worker for its duration;
// engine primitives invoked inside a job (ParallelFor et al.) run inline
// on that worker by the pool's no-nested-fan-out rule. Concurrency
// therefore comes from many in-flight jobs, which is exactly the serving
// workload. Every job is deterministic in its inputs, so N concurrent
// submissions return the same results as running them sequentially.
//
// Do not Wait() on a handle from inside another job: a worker blocked in
// Wait() cannot drain the queue in front of the awaited job. Frontend
// threads (outside the pool) may always Wait().
//
// Admission control and degradation: ServiceOptions::max_pending bounds
// the number of admitted-but-not-yet-started jobs; past the bound Submit
// sheds the job — its handle completes immediately with
// kResourceExhausted instead of queueing unbounded work. Each submission
// may carry a deadline (expired jobs complete with kDeadlineExceeded
// without running) and a CancellationToken (cancelled jobs complete with
// kCancelled without running). Drain() blocks new submissions
// (kUnavailable) and waits for every in-flight job; Resume() reopens
// admission. The service.enqueue fault point sits in the admission path.

#ifndef PPDM_API_SERVICE_H_
#define PPDM_API_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "api/dataset_session.h"
#include "api/spec.h"
#include "common/status.h"
#include "engine/batch.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdm::api {

namespace internal {

/// Service job telemetry (defined in service.cc): time a job sat in the
/// pool queue before a worker picked it up, time it ran, and how many
/// were submitted — the queue-wait-vs-run split that tells an operator
/// whether latency is load (wait) or work (run). The shed / expired /
/// cancelled counters track jobs that completed without running: refused
/// at admission, past their deadline, or cancelled before a worker
/// reached them.
obs::Histogram& ServiceQueueWaitHistogram();
obs::Histogram& ServiceRunHistogram();
obs::Counter& ServiceJobsCounter();
obs::Counter& ServiceShedCounter();
obs::Counter& ServiceExpiredCounter();
obs::Counter& ServiceCancelledCounter();

/// Shared completion state of one submitted job.
template <typename T>
struct JobState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<T>> result;                // set exactly once
  std::function<void(const Result<T>&)> callback; // chained registrations
};

}  // namespace internal

/// Cooperative cancellation flag shared between a submitter and its jobs.
/// Cancel() is sticky and thread-safe; a job whose token is cancelled
/// before a worker reaches it completes with kCancelled without running.
/// Jobs already running are not interrupted — cancellation is a promise
/// about work that has not started, never a preemption.
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-submission controls; default-constructed means "run unconditionally".
struct SubmitOptions {
  /// Absolute deadline: a job still unstarted past this instant completes
  /// with kDeadlineExceeded instead of running.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Cancellation token checked immediately before the job would run.
  std::shared_ptr<CancellationToken> cancel;

  /// Convenience: a deadline `timeout` from now.
  static SubmitOptions After(std::chrono::microseconds timeout) {
    SubmitOptions options;
    options.deadline = std::chrono::steady_clock::now() + timeout;
    return options;
  }
};

/// Handle to one in-flight job. Cheap to copy; all copies observe the same
/// completion.
template <typename T>
class JobHandle {
 public:
  /// True once the job has finished (successfully or not). Never blocks.
  bool Poll() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->result.has_value();
  }

  /// Blocks until the job finishes and returns its Result. Must not be
  /// called from inside another job (see the header comment).
  Result<T> Wait() const {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [this] { return state_->result.has_value(); });
    return *state_->result;
  }

  /// Blocks up to `timeout` for the job to finish; nullopt on timeout
  /// (the job keeps running — WaitFor bounds the wait, not the work).
  std::optional<Result<T>> WaitFor(std::chrono::microseconds timeout) const {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (!state_->cv.wait_for(lock, timeout, [this] {
          return state_->result.has_value();
        })) {
      return std::nullopt;
    }
    return *state_->result;
  }

  /// Registers a completion callback, invoked exactly once with the
  /// job's Result — immediately if the job already finished, otherwise on
  /// the worker that completes it. Multiple registrations (including via
  /// handle copies) all fire, in registration order.
  void OnComplete(std::function<void(const Result<T>&)> callback) {
    std::unique_lock<std::mutex> lock(state_->mu);
    if (state_->result.has_value()) {
      const Result<T>& result = *state_->result;
      lock.unlock();
      callback(result);
      return;
    }
    if (state_->callback) {
      state_->callback = [prev = std::move(state_->callback),
                          next = std::move(callback)](const Result<T>& r) {
        prev(r);
        next(r);
      };
    } else {
      state_->callback = std::move(callback);
    }
  }

 private:
  friend class Service;
  explicit JobHandle(std::shared_ptr<internal::JobState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::JobState<T>> state_;
};

/// Service-level knobs beyond the engine options.
struct ServiceOptions {
  /// Maximum admitted-but-not-yet-started jobs; 0 means unbounded. Past
  /// the bound Submit sheds: the handle completes with kResourceExhausted.
  std::size_t max_pending = 0;
};

/// The session-oriented service facade: owns the pool, accepts jobs.
class Service {
 public:
  /// Validates the engine options and builds the service. num_threads == 0
  /// yields a synchronous service: Submit runs the job inline and returns
  /// an already-completed handle — same API, no concurrency.
  static Result<std::unique_ptr<Service>> Create(
      const engine::BatchOptions& options);
  static Result<std::unique_ptr<Service>> Create(
      const engine::BatchOptions& options, const ServiceOptions& service);

  /// Destruction drains the request queue: every submitted job completes
  /// before the pool joins.
  ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const engine::BatchOptions& options() const { return options_; }

  /// The pool jobs run on; nullptr for a synchronous service. Borrow it
  /// for session-parallel work (e.g. DatasetSession ingestion).
  engine::ThreadPool* pool() const { return pool_.get(); }

  /// Enqueues `job` and returns its handle. The job runs at most once, on
  /// one pool worker (inline for a synchronous service). A shed, expired,
  /// or cancelled job never runs: its handle completes with the matching
  /// resilience status instead.
  template <typename T>
  JobHandle<T> Submit(std::function<Result<T>()> job) {
    return Submit(std::move(job), SubmitOptions{});
  }

  template <typename T>
  JobHandle<T> Submit(std::function<Result<T>()> job, SubmitOptions opts) {
    auto state = std::make_shared<internal::JobState<T>>();
    internal::ServiceJobsCounter().Increment();
    if (Status admitted = TryAdmit(); !admitted.ok()) {
      internal::ServiceShedCounter().Increment();
      Complete(state, Result<T>(std::move(admitted)));
      return JobHandle<T>(std::move(state));
    }
    const auto submitted = std::chrono::steady_clock::now();
    // Causality crosses the queue here: the submitter's trace context is
    // captured now and adopted on whichever worker runs the job, so the
    // queue-wait and run spans below land as sibling children of the
    // submitter's open span (the daemon's net.request).
    const obs::TraceContext trace = obs::TraceContext::Current();
    // The lambda captures `this` for the job-accounting hooks; safe
    // because ~Service joins the pool (draining every queued job) before
    // the counters it touches are destroyed.
    auto run = [this, state, job = std::move(job), opts = std::move(opts),
                submitted, trace] {
      OnJobStarted();
      obs::ScopedTraceContext adopt(trace);
      obs::RecordSpan("service.queue", submitted,
                      std::chrono::steady_clock::now(),
                      &internal::ServiceQueueWaitHistogram());
      if (opts.cancel != nullptr && opts.cancel->cancelled()) {
        internal::ServiceCancelledCounter().Increment();
        Complete(state, Result<T>(Status::Cancelled(
                            "job cancelled before it ran")));
        OnJobFinished();
        return;
      }
      if (opts.deadline.has_value() &&
          std::chrono::steady_clock::now() >= *opts.deadline) {
        internal::ServiceExpiredCounter().Increment();
        Complete(state, Result<T>(Status::DeadlineExceeded(
                            "job deadline passed before it ran")));
        OnJobFinished();
        return;
      }
      // The run span closes before Complete so the handle's callback
      // (which may render this request's finished tree) sees it.
      Result<T> result = [&] {
        obs::ScopedSpan run_span("service.run",
                                 &internal::ServiceRunHistogram());
        return job();
      }();
      Complete(state, std::move(result));
      OnJobFinished();
    };
    if (pool_ == nullptr) {
      run();
    } else {
      pool_->Submit(std::move(run));
    }
    return JobHandle<T>(std::move(state));
  }

  /// Blocks new submissions (they shed with kUnavailable) and waits until
  /// every in-flight job has completed. Resume() reopens admission. Call
  /// from a frontend thread only — never from inside a job.
  void Drain();
  void Resume();

  /// Jobs admitted but not yet picked up by a worker.
  std::size_t pending() const;

  /// Opens a dataset-level session backed by this service's pool: record
  /// batches fold into every attribute in one pass, ReconstructAll fans
  /// one warm-started fit per attribute over the workers.
  Result<std::unique_ptr<DatasetSession>> OpenDatasetSession(
      const DatasetSessionSpec& spec) const {
    return DatasetSession::Open(spec, pool_.get());
  }

  const ServiceOptions& service_options() const { return service_options_; }

 private:
  Service(const engine::BatchOptions& options,
          const ServiceOptions& service);

  /// Admission check (defined in service.cc): fires the service.enqueue
  /// fault point, refuses while draining (kUnavailable) or past
  /// max_pending (kResourceExhausted); on success counts the job as
  /// queued and in flight.
  Status TryAdmit();
  void OnJobStarted();
  void OnJobFinished();

  template <typename T>
  static void Complete(const std::shared_ptr<internal::JobState<T>>& state,
                       Result<T> result) {
    std::function<void(const Result<T>&)> callback;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.emplace(std::move(result));
      callback = std::move(state->callback);
      state->callback = nullptr;
    }
    state->cv.notify_all();
    if (callback) callback(*state->result);
  }

  engine::BatchOptions options_;
  ServiceOptions service_options_;

  // Admission state. Declared before pool_ so the pool's destructor (which
  // drains queued jobs that touch these counters) runs first.
  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::size_t queued_ = 0;    // admitted, not yet started
  std::size_t in_flight_ = 0; // admitted, not yet completed
  bool draining_ = false;

  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace ppdm::api

#endif  // PPDM_API_SERVICE_H_
