// Chaos suite for the resilience layer: deterministic fault-point
// triggers (every:N / prob:P:SEED / once / off, transient vs permanent),
// the retry/backoff policy, every registered fault point exercised
// through its real code path (store put/get stages, spill demotion,
// registry re-admission; the daemon's service.enqueue point is driven over
// the wire in net_test), graceful degradation in the session registry
// (failed spill keeps data resident; failed readmit surfaces a clean
// Status), and the determinism contract: a
// stream that completes under injected transient faults reconstructs
// byte-identically to a no-fault run at 0/1/2/8 threads.
//
// Every test disarms all points on entry and exit — faults are process
// globals and must never leak between tests.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/dataset_session.h"
#include "api/registry.h"
#include "common/fault.h"
#include "common/retry.h"
#include "common/status.h"
#include "data/row_batch.h"
#include "engine/thread_pool.h"
#include "perturb/randomizer.h"
#include "store/snapshot_store.h"
#include "store/spill_store.h"
#include "synth/generator.h"
#include "test_util.h"

namespace ppdm {
namespace {

using test::BenchmarkDatasetSpec;
using test::PerturbedRows;
using test::ReconstructionsIdentical;
using test::TempDir;

namespace fs = std::filesystem;

// Faults are process-wide; a leaked arming would poison every later test.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }
};

// ----------------------------------------------------------- fault points

TEST_F(FaultTest, DisarmedPointNeverFires) {
  fault::FaultPoint& point = fault::Point("test.disarmed");
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(point.Fire().ok());
  EXPECT_FALSE(point.armed());
  EXPECT_EQ(point.injected(), 0u);
}

TEST_F(FaultTest, EveryNthFailsExactlyTheNthFirings) {
  ASSERT_TRUE(fault::ArmFromSpec("test.nth=every:3").ok());
  fault::FaultPoint& point = fault::Point("test.nth");
  std::vector<bool> failed;
  for (int i = 0; i < 9; ++i) failed.push_back(!point.Fire().ok());
  EXPECT_EQ(failed, (std::vector<bool>{false, false, true, false, false,
                                       true, false, false, true}));
}

TEST_F(FaultTest, OnceFailsExactlyOnceThenDisarms) {
  ASSERT_TRUE(fault::ArmFromSpec("test.once=once").ok());
  fault::FaultPoint& point = fault::Point("test.once");
  EXPECT_TRUE(point.armed());
  EXPECT_FALSE(point.Fire().ok());
  EXPECT_FALSE(point.armed());
  EXPECT_TRUE(point.Fire().ok());
  EXPECT_EQ(point.injected(), 1u);
}

TEST_F(FaultTest, ProbabilityStreamIsDeterministicInItsSeed) {
  auto sample = [](const std::string& spec) {
    EXPECT_TRUE(fault::ArmFromSpec(spec).ok());
    fault::FaultPoint& point = fault::Point("test.prob");
    std::vector<bool> failed;
    for (int i = 0; i < 64; ++i) failed.push_back(!point.Fire().ok());
    return failed;
  };
  const std::vector<bool> first = sample("test.prob=prob:0.5:99");
  const std::vector<bool> second = sample("test.prob=prob:0.5:99");
  const std::vector<bool> other_seed = sample("test.prob=prob:0.5:7");
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other_seed);
  // p=0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FaultTest, ProbabilityOneAlwaysFiresAndZeroNeverDoes) {
  ASSERT_TRUE(fault::ArmFromSpec("test.p1=prob:1").ok());
  ASSERT_TRUE(fault::ArmFromSpec("test.p0=prob:0").ok());
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(fault::Point("test.p1").Fire().ok());
    EXPECT_TRUE(fault::Point("test.p0").Fire().ok());
  }
}

TEST_F(FaultTest, TransientAndPermanentCodesMatchTheRetryClassifier) {
  ASSERT_TRUE(fault::ArmFromSpec("test.t=once;test.p=once,permanent").ok());
  const Status transient = fault::Point("test.t").Fire();
  const Status permanent = fault::Point("test.p").Fire();
  EXPECT_EQ(transient.code(), StatusCode::kUnavailable);
  EXPECT_EQ(permanent.code(), StatusCode::kInternal);
  EXPECT_TRUE(retry::IsTransient(transient));
  EXPECT_FALSE(retry::IsTransient(permanent));
}

TEST_F(FaultTest, SpecOffDisarmsAndDisarmAllClearsEverything) {
  ASSERT_TRUE(fault::ArmFromSpec("test.a=every:2;test.b=prob:1").ok());
  EXPECT_TRUE(fault::AnyArmed());
  ASSERT_TRUE(fault::ArmFromSpec("test.a=off").ok());
  EXPECT_FALSE(fault::Point("test.a").armed());
  EXPECT_TRUE(fault::Point("test.b").armed());
  fault::DisarmAll();
  EXPECT_FALSE(fault::AnyArmed());
}

TEST_F(FaultTest, MalformedSpecsAreInvalidArgument) {
  const char* bad[] = {
      "noequals",          "=every:2",        "x=",
      "x=every:",          "x=every:0",       "x=every:abc",
      "x=prob:",           "x=prob:1.5",      "x=prob:-0.1",
      "x=prob:0.5:junk",   "x=sometimes",     "x=once,maybe",
  };
  for (const char* spec : bad) {
    const Status status = fault::ArmFromSpec(spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "spec: " << spec << " -> " << status.ToString();
  }
  // Entries are applied left to right; a malformed tail keeps the valid
  // head armed.
  EXPECT_FALSE(fault::ArmFromSpec("test.head=prob:1;bogus").ok());
  EXPECT_TRUE(fault::Point("test.head").armed());
}

TEST_F(FaultTest, RegisteredPointsListsArmedAndFiredNames) {
  (void)fault::Point("test.registered");
  const std::vector<std::string> names = fault::RegisteredPoints();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.registered"),
            names.end());
}

// ------------------------------------------------------------------ retry

TEST_F(FaultTest, RetryRidesThroughTransientFailures) {
  retry::RetryPolicy policy;
  std::vector<std::chrono::microseconds> slept;
  policy.sleep = [&slept](std::chrono::microseconds d) {
    slept.push_back(d);
  };
  int calls = 0;
  const Status status = retry::Retry(policy, [&calls]() -> Status {
    ++calls;
    if (calls < 3) return Status::Unavailable("flaky");
    return Status::Ok();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], retry::BackoffFor(1));
  EXPECT_EQ(slept[1], retry::BackoffFor(2));
}

TEST_F(FaultTest, RetryReturnsPermanentFailuresImmediately) {
  retry::RetryPolicy policy;
  policy.sleep = [](std::chrono::microseconds) {
    FAIL() << "permanent failures must not back off";
  };
  int calls = 0;
  const Status status = retry::Retry(policy, [&calls]() -> Status {
    ++calls;
    return Status::DataLoss("torn");
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
}

TEST_F(FaultTest, RetryGivesUpAfterMaxAttempts) {
  retry::RetryPolicy policy;
  policy.sleep = [](std::chrono::microseconds) {};
  int calls = 0;
  const Result<int> result =
      retry::Retry(policy, [&calls]() -> Result<int> {
        ++calls;
        return Status::IoError("disk on fire");
      });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 3);
}

TEST_F(FaultTest, BackoffIsDeterministicCappedAndJittered) {
  EXPECT_EQ(retry::kInitialBackoff, std::chrono::milliseconds(1));
  EXPECT_EQ(retry::kMaxBackoff, std::chrono::milliseconds(250));
  for (std::size_t attempt = 1; attempt <= 12; ++attempt) {
    const auto backoff = retry::BackoffFor(attempt);
    EXPECT_EQ(backoff, retry::BackoffFor(attempt));  // stateless
    const double base =
        std::min(1000.0 * std::pow(2.0, static_cast<double>(attempt - 1)),
                 250000.0);
    EXPECT_GE(backoff.count(), static_cast<long long>(0.5 * base) - 1);
    EXPECT_LE(backoff.count(), static_cast<long long>(base));
  }
}

// ------------------------------------------------------- store under fault

TEST_F(FaultTest, PutRetriesThroughTransientIoFault) {
  TempDir dir;
  auto store = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(fault::ArmFromSpec("store.put.io=once").ok());
  EXPECT_TRUE(store.value().Put("name", "payload").ok());
  EXPECT_EQ(fault::Point("store.put.io").injected(), 1u);
  const auto got = store.value().Get("name");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "payload");
}

TEST_F(FaultTest, GetRetriesThroughTransientIoFault) {
  TempDir dir;
  auto store = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().Put("name", "payload").ok());
  ASSERT_TRUE(fault::ArmFromSpec("store.get.io=once").ok());
  const auto got = store.value().Get("name");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "payload");
  EXPECT_EQ(fault::Point("store.get.io").injected(), 1u);
}

TEST_F(FaultTest, ExhaustedRetriesSurfaceTheTransientFailure) {
  TempDir dir;
  auto store = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(store.ok());
  retry::RetryPolicy fast;
  fast.sleep = [](std::chrono::microseconds) {};
  store.value().set_retry_policy(fast);
  ASSERT_TRUE(fault::ArmFromSpec("store.put.io=prob:1").ok());
  const Status status = store.value().Put("name", "payload");
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GE(fault::Point("store.put.io").injected(),
            retry::kMaxAttempts);  // every attempt
  EXPECT_FALSE(store.value().Contains("name"));
}

// The torn-write regression: a failure at any Put stage — including the
// fsync/rename window — must leave the previous snapshot byte-intact and
// no temp litter behind.
TEST_F(FaultTest, FailedPutStagesNeverTearThePreviousSnapshot) {
  const char* stages[] = {"store.put.io", "store.put.sync",
                          "store.put.rename"};
  for (const char* stage : stages) {
    TempDir dir;
    auto store = store::SnapshotStore::Open(dir.path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().Put("name", "v1: the good bytes").ok());
    ASSERT_TRUE(
        fault::ArmFromSpec(std::string(stage) + "=prob:1,permanent").ok());
    const Status status = store.value().Put("name", "v2: never lands");
    EXPECT_EQ(status.code(), StatusCode::kInternal) << stage;
    fault::DisarmAll();

    const auto got = store.value().Get("name");
    ASSERT_TRUE(got.ok()) << stage;
    EXPECT_EQ(got.value(), "v1: the good bytes") << stage;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      EXPECT_NE(entry.path().extension(), ".tmp")
          << stage << " left temp litter: " << entry.path();
    }
  }
}

// A real (non-injected) rename failure: the target name is occupied by a
// non-empty directory, which rename(2) cannot replace. Distinct from the
// injected coverage above — this exercises the errno branch.
TEST_F(FaultTest, RealRenameFailureIsIoErrorAndRemovesTemp) {
  TempDir dir;
  auto store = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(store.ok());
  const std::string target = dir.path + "/blocked.snap";
  ASSERT_TRUE(fs::create_directory(target));
  {
    std::ofstream occupant(target + "/occupant");
    occupant << "x";
  }
  retry::RetryPolicy fast;
  fast.sleep = [](std::chrono::microseconds) {};
  store.value().set_retry_policy(fast);
  const Status status = store.value().Put("blocked", "payload");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp");
  }
}

// --------------------------------------------------- registry degradation

TEST_F(FaultTest, FailedSpillKeepsTheSessionResidentAndRetriesLater) {
  TempDir dir;
  auto snapshots = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(snapshots.ok());
  store::SessionSpillStore spill(snapshots.value());

  auto now = std::chrono::steady_clock::now();
  api::SessionRegistryOptions options;
  options.max_bytes = 1;  // every second tenant forces a demotion
  options.spill = &spill;
  options.clock = [&now] { return now; };
  api::SessionRegistry registry(options, nullptr);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);

  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  std::size_t cols = 0;
  const std::vector<double> rows = PerturbedRows(64, &cols);
  ASSERT_TRUE(a.value()->Ingest(data::RowBatch(rows.data(), 64, cols)).ok());

  // Opening "b" must demote "a" — but the demotion fails. The registry
  // keeps "a" resident (over budget) instead of destroying its evidence.
  ASSERT_TRUE(fault::ArmFromSpec("spill.demote=prob:1").ok());
  ASSERT_TRUE(registry.Open("b", spec).ok());
  api::SessionRegistry::Stats stats = registry.GetStats();
  EXPECT_EQ(stats.open_sessions, 2u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_GE(stats.spill_failures, 1u);
  EXPECT_GE(stats.degraded_sessions, 1u);
  const auto resident = registry.TryLookup("a");
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident.value()->record_count(), 64u);

  // Backend heals; past every backoff window, the next touch of another
  // name retries the demotion and the budget accounting lands exactly on
  // "b".
  fault::DisarmAll();
  now += 16 * api::kSpillRetryBackoff;
  ASSERT_TRUE(registry.TryLookup("b").ok());
  stats = registry.GetStats();
  EXPECT_EQ(stats.open_sessions, 1u);
  EXPECT_EQ(stats.spilled_sessions, 1u);
  EXPECT_GE(stats.spills, 1u);
  EXPECT_GT(stats.spilled_bytes, 0u);
  // "b" still wears its degraded mark — the armed TryLookup("a") above also
  // tried (and failed) to demote it. The mark clears only once "b"
  // itself spills cleanly.
  EXPECT_EQ(stats.degraded_sessions, 1u);

  // The spilled evidence survived the earlier failed attempt: "a"
  // re-admits with every record, which demotes "b" cleanly and clears
  // the last degraded mark.
  const auto readmitted = registry.TryLookup("a");
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted.value()->record_count(), 64u);
  EXPECT_EQ(registry.GetStats().degraded_sessions, 0u);
}

TEST_F(FaultTest, FailedSpillRespectsItsBackoffWindow) {
  TempDir dir;
  auto snapshots = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(snapshots.ok());
  store::SessionSpillStore spill(snapshots.value());

  auto now = std::chrono::steady_clock::now();
  api::SessionRegistryOptions options;
  options.max_bytes = 1;
  options.spill = &spill;
  options.clock = [&now] { return now; };
  api::SessionRegistry registry(options, nullptr);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  ASSERT_TRUE(registry.Open("a", spec).ok());
  ASSERT_TRUE(fault::ArmFromSpec("spill.demote=prob:1").ok());
  ASSERT_TRUE(registry.Open("b", spec).ok());
  const std::uint64_t failures = registry.GetStats().spill_failures;
  EXPECT_GE(failures, 1u);

  // Still armed, but inside the backoff window: touches must not hammer
  // the failing backend with further attempts.
  ASSERT_TRUE(registry.TryLookup("b").ok());
  ASSERT_TRUE(registry.TryLookup("b").ok());
  EXPECT_EQ(registry.GetStats().spill_failures, failures);

  // Past the window the attempt is retried (and fails again).
  now += api::kSpillRetryBackoff + std::chrono::milliseconds(50);
  ASSERT_TRUE(registry.TryLookup("b").ok());
  EXPECT_GT(registry.GetStats().spill_failures, failures);
}

TEST_F(FaultTest, FailedReadmitSurfacesACleanStatusAndHealsOnRetry) {
  TempDir dir;
  auto snapshots = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(snapshots.ok());
  store::SessionSpillStore spill(snapshots.value());

  api::SessionRegistryOptions options;
  options.max_bytes = 1;
  options.spill = &spill;
  api::SessionRegistry registry(options, nullptr);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  std::size_t cols = 0;
  const std::vector<double> rows = PerturbedRows(32, &cols);
  ASSERT_TRUE(a.value()->Ingest(data::RowBatch(rows.data(), 32, cols)).ok());
  a = Status::Ok();  // drop our reference; the registry owns the session
  ASSERT_TRUE(registry.Open("b", spec).ok());  // demotes "a" to disk
  ASSERT_EQ(registry.GetStats().spilled_sessions, 1u);

  ASSERT_TRUE(fault::ArmFromSpec("registry.readmit=once").ok());
  const auto failed = registry.TryLookup("a");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // Clean failure: the capture is intact, the name still taken, and the
  // next (disarmed) attempt re-admits every record.
  EXPECT_TRUE(snapshots.value().Contains("a"));
  const auto healed = registry.TryLookup("a");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value()->record_count(), 32u);
}

TEST_F(FaultTest, CorruptCaptureSurfacesDecodeStatusAndCloseDiscardsIt) {
  TempDir dir;
  auto snapshots = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(snapshots.ok());
  store::SessionSpillStore spill(snapshots.value());
  ASSERT_TRUE(snapshots.value().Put("ghost", "not a session capture").ok());

  api::SessionRegistryOptions options;
  options.spill = &spill;
  api::SessionRegistry registry(options, nullptr);
  ASSERT_TRUE(registry.AdoptCaptures().ok());  // the restart hand-over
  const auto looked = registry.TryLookup("ghost");
  EXPECT_FALSE(looked.ok());
  EXPECT_NE(looked.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(snapshots.value().Contains("ghost"));  // kept for inspection
  EXPECT_GE(registry.GetStats().spill_failures, 1u);

  EXPECT_TRUE(registry.Close("ghost"));
  EXPECT_FALSE(snapshots.value().Contains("ghost"));
  EXPECT_EQ(registry.TryLookup("ghost").status().code(),
            StatusCode::kNotFound);
}

// ------------------------------------------- nothing aborts, everything
// returns: every fault point armed at p=1, full stack exercised

TEST_F(FaultTest, EveryPointArmedAtProbabilityOneNeverAborts) {
  TempDir dir;
  auto snapshots = store::SnapshotStore::Open(dir.path);
  ASSERT_TRUE(snapshots.ok());
  retry::RetryPolicy fast;
  fast.sleep = [](std::chrono::microseconds) {};
  snapshots.value().set_retry_policy(fast);
  store::SessionSpillStore spill(snapshots.value());

  // service.enqueue fires in the daemon's dispatch, which net_test drives
  // at p=1; here its name must still arm cleanly with the rest.
  ASSERT_TRUE(fault::ArmFromSpec(
                  "store.put.io=prob:1;store.put.sync=prob:1;"
                  "store.put.rename=prob:1;store.get.io=prob:1;"
                  "spill.demote=prob:1;registry.readmit=prob:1;"
                  "service.enqueue=prob:1")
                  .ok());

  // Store: both I/O directions fail as Status.
  EXPECT_FALSE(snapshots.value().Put("name", "payload").ok());
  EXPECT_FALSE(snapshots.value().Get("name").ok());

  // Registry over the failing tier: sessions still open, ingest, and
  // reconstruct; demotions degrade instead of destroying.
  api::SessionRegistryOptions options;
  options.max_bytes = 1;
  options.spill = &spill;
  api::SessionRegistry registry(options, nullptr);
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(1, 8);
  auto a = registry.Open("a", spec);
  ASSERT_TRUE(a.ok());
  std::size_t cols = 0;
  const std::vector<double> rows = PerturbedRows(32, &cols);
  EXPECT_TRUE(
      a.value()->Ingest(data::RowBatch(rows.data(), 32, cols)).ok());
  EXPECT_TRUE(registry.Open("b", spec).ok());
  EXPECT_EQ(registry.GetStats().open_sessions, 2u);  // nothing was lost
  EXPECT_TRUE(registry.TryLookup("a").ok());
  EXPECT_TRUE(a.value()->ReconstructAll().ok());

  EXPECT_GT(fault::TotalInjected(), 0u);
}

// -------------------------------------------------- chaos determinism

// One simulated stream: two tenants under a one-byte budget, so every
// batch round-trips "a" through the spill tier (demote on the "b" touch,
// re-admit on the "a" touch). Returns the final reconstruction of "a".
Result<std::vector<reconstruct::Reconstruction>> RunSpillStream(
    std::size_t num_threads, const std::string& dir) {
  std::unique_ptr<engine::ThreadPool> pool =
      num_threads == 0 ? nullptr
                       : std::make_unique<engine::ThreadPool>(num_threads);
  PPDM_ASSIGN_OR_RETURN(store::SnapshotStore snapshots,
                        store::SnapshotStore::Open(dir));
  store::SessionSpillStore spill(snapshots);
  api::SessionRegistryOptions options;
  options.max_bytes = 1;
  options.spill = &spill;
  api::SessionRegistry registry(options, pool.get());
  const api::DatasetSessionSpec spec = BenchmarkDatasetSpec(2, 8);

  std::size_t cols = 0;
  const std::vector<double> rows = PerturbedRows(512, &cols);
  {
    PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> a,
                          registry.Open("a", spec));
    (void)a;
  }
  PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> b,
                        registry.Open("b", spec));
  (void)b;
  for (std::size_t offset = 0; offset < 512; offset += 64) {
    PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> a,
                          registry.TryLookup("a"));
    PPDM_RETURN_IF_ERROR(
        a->Ingest(data::RowBatch(rows.data() + offset * cols, 64, cols)));
    // Touching "b" demotes "a" (LRU under the one-byte budget): the next
    // iteration's TryLookup must re-admit it from disk.
    PPDM_RETURN_IF_ERROR(registry.TryLookup("b").status());
  }
  PPDM_ASSIGN_OR_RETURN(const std::shared_ptr<api::DatasetSession> a,
                        registry.TryLookup("a"));
  if (a->record_count() != 512u) {
    return Status::Internal("stream lost records");
  }
  return a->ReconstructAll();
}

// The acceptance property: a stream that *completes* under injected
// transient store faults (ridden through by the retry layer) must
// reconstruct byte-identically to the same stream with no faults — at
// every thread count. Faults may add latency, never drift.
TEST_F(FaultTest, CompletedChaosRunsAreByteIdenticalToNoFaultRuns) {
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    TempDir clean_dir;
    const auto baseline = RunSpillStream(threads, clean_dir.path);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    ASSERT_TRUE(fault::ArmFromSpec(
                    "store.put.io=every:3;store.get.io=every:4").ok());
    TempDir chaos_dir;
    const auto chaos = RunSpillStream(threads, chaos_dir.path);
    fault::DisarmAll();
    ASSERT_TRUE(chaos.ok())
        << "threads=" << threads << ": " << chaos.status().ToString();
    EXPECT_GT(fault::TotalInjected(), 0u);  // the run really was attacked

    ASSERT_EQ(baseline.value().size(), chaos.value().size());
    for (std::size_t attr = 0; attr < baseline.value().size(); ++attr) {
      EXPECT_TRUE(ReconstructionsIdentical(baseline.value()[attr],
                                           chaos.value()[attr]))
          << "threads=" << threads << " attribute=" << attr;
    }
  }
}

}  // namespace
}  // namespace ppdm
