// Admission gate in front of the engine pool: the serving daemon hands
// every request to Service::Submit as one job plus a completion callback,
// and goes back to its event loop instead of blocking on the engine.
//
// Submit(job, deadline, done) runs `job` at most once, on one pool worker
// (inline on the caller for a service built with zero threads), and calls
// `done` with the job's Result exactly once:
//   * inline, before Submit returns, when admission refuses the job — the
//     service.enqueue fault point fired (its Status), the service is
//     draining (kUnavailable), or max_pending admitted jobs have not yet
//     started (kResourceExhausted);
//   * on the worker, without running the job, when the deadline passed
//     while the job sat in the queue (kDeadlineExceeded);
//   * on the worker, after the job returns and its service.run span has
//     closed, with the job's own Result.
// Errors travel through the Result, never as exceptions.
//
// Scheduling model: each job occupies one pool worker for its duration;
// engine primitives invoked inside a job (ParallelFor et al.) run inline
// on that worker by the pool's no-nested-fan-out rule. Concurrency comes
// from many in-flight jobs, which is exactly the serving workload. A job
// never blocks on another job — there is nothing to wait on, only the
// callback — so a saturated pool always drains. Every job is
// deterministic in its inputs, so N concurrent submissions return the
// same results as running them sequentially.
//
// The submitter's trace context is captured at Submit and adopted on the
// worker, so the service.queue (wait) and service.run spans land as
// sibling children of the submitter's open span. Drain() refuses new
// submissions and waits for every admitted job's `done` to return.

#ifndef PPDM_API_SERVICE_H_
#define PPDM_API_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "engine/thread_pool.h"

namespace ppdm::api {

class Service {
 public:
  using Job = std::function<Result<std::string>()>;
  using Done = std::function<void(const Result<std::string>&)>;

  /// Builds the service with a pool of `num_threads` workers (kInvalidArgument
  /// past the engine's thread limit). num_threads == 0 yields a synchronous
  /// service: Submit runs the job and `done` inline — same contract, no
  /// concurrency. `max_pending` bounds admitted-but-not-yet-started jobs;
  /// 0 means unbounded.
  static Result<std::unique_ptr<Service>> Create(std::size_t num_threads,
                                                 std::size_t max_pending);

  /// Destruction drains the request queue: every submitted job completes
  /// before the pool joins.
  ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// The pool jobs run on; nullptr for a synchronous service. Borrow it
  /// for session-parallel work (e.g. DatasetSession ingestion).
  engine::ThreadPool* pool() const { return pool_.get(); }

  /// Admits `job` and returns; `done` receives its Result exactly once
  /// (see the header comment for where). A job still unstarted at
  /// `deadline` never runs.
  void Submit(Job job,
              std::optional<std::chrono::steady_clock::time_point> deadline,
              Done done);

  /// Refuses every later submission (kUnavailable) and blocks until each
  /// admitted job has completed. Call from a frontend thread only — never
  /// from inside a job.
  void Drain();

 private:
  Service(std::size_t num_threads, std::size_t max_pending);

  /// Admission check: fires the service.enqueue fault point, refuses while
  /// draining (kUnavailable) or past max_pending (kResourceExhausted); on
  /// success counts the job as queued and in flight.
  Status TryAdmit();
  void OnJobStarted();
  void OnJobFinished();

  const std::size_t max_pending_;

  // Admission state. Declared before pool_ so the pool's destructor (which
  // drains queued jobs that touch these counters) runs first.
  std::mutex mu_;
  std::condition_variable drained_cv_;
  std::size_t queued_ = 0;    // admitted, not yet started
  std::size_t in_flight_ = 0; // admitted, not yet completed
  bool draining_ = false;

  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace ppdm::api

#endif  // PPDM_API_SERVICE_H_
