#include "api/service.h"

#include <utility>

#include "api/spec.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdm::api {
namespace {

fault::FaultPoint& EnqueueFault() {
  static fault::FaultPoint& point = fault::Point("service.enqueue");
  return point;
}

// Job telemetry: time a job sat in the pool queue before a worker picked
// it up, time it ran, and how many were submitted — the queue-wait-vs-run
// split that tells an operator whether latency is load (wait) or work
// (run). The shed / expired counters track jobs that completed without
// running: refused at admission or past their deadline.
obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_service_queue_wait_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Histogram& RunHistogram() {
  static obs::Histogram& histogram =
      *obs::MetricsRegistry::Global().GetHistogram(
          "ppdm_service_run_seconds",
          obs::Histogram::LatencyBucketsSeconds());
  return histogram;
}

obs::Counter& JobsCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_jobs_total");
  return counter;
}

obs::Counter& ShedCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_shed_jobs_total");
  return counter;
}

obs::Counter& ExpiredCounter() {
  static obs::Counter& counter = *obs::MetricsRegistry::Global().GetCounter(
      "ppdm_service_expired_jobs_total");
  return counter;
}

}  // namespace

Service::Service(std::size_t num_threads, std::size_t max_pending)
    : max_pending_(max_pending),
      pool_(num_threads == 0
                ? nullptr
                : std::make_unique<engine::ThreadPool>(num_threads)) {}

Result<std::unique_ptr<Service>> Service::Create(std::size_t num_threads,
                                                 std::size_t max_pending) {
  PPDM_RETURN_IF_ERROR(ValidateThreads(num_threads));
  // Register the resilience counters up front so a chaos run's exposition
  // shows them (as 0) even when nothing was shed or retried.
  ShedCounter();
  ExpiredCounter();
  retry::internal::TouchMetrics();
  return std::unique_ptr<Service>(new Service(num_threads, max_pending));
}

void Service::Submit(
    Job job, std::optional<std::chrono::steady_clock::time_point> deadline,
    Done done) {
  JobsCounter().Increment();
  if (Status admitted = TryAdmit(); !admitted.ok()) {
    ShedCounter().Increment();
    done(Result<std::string>(std::move(admitted)));
    return;
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
  auto run = [this, job = std::move(job), deadline, done = std::move(done),
              submitted, trace] {
    OnJobStarted();
    obs::ScopedTraceContext adopt(trace);
    obs::RecordSpan("service.queue", submitted,
                    std::chrono::steady_clock::now(), &QueueWaitHistogram());
    if (deadline.has_value() &&
        std::chrono::steady_clock::now() >= *deadline) {
      ExpiredCounter().Increment();
      done(Result<std::string>(
          Status::DeadlineExceeded("job deadline passed before it ran")));
      OnJobFinished();
      return;
    }
    // The run span closes before `done` so the callback (which may render
    // this request's finished tree) sees it.
    Result<std::string> result = [&] {
      obs::ScopedSpan run_span("service.run", &RunHistogram());
      return job();
    }();
    done(result);
    OnJobFinished();
  };
  if (pool_ == nullptr) {
    run();
  } else {
    pool_->Submit(std::move(run));
  }
}

Status Service::TryAdmit() {
  if (Status injected = EnqueueFault().Fire(); !injected.ok()) {
    return injected;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    return Status::Unavailable("service is draining");
  }
  if (max_pending_ > 0 && queued_ >= max_pending_) {
    return Status::ResourceExhausted(
        StrFormat("pending-job queue full (%zu jobs)", queued_));
  }
  ++queued_;
  ++in_flight_;
  return Status::Ok();
}

void Service::OnJobStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  --queued_;
}

void Service::OnJobFinished() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    if (in_flight_ > 0) return;
  }
  drained_cv_.notify_all();
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace ppdm::api
