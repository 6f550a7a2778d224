#include "store/snapshot_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdm::store {
namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotExtension[] = ".snap";

// Store I/O telemetry: bytes moved and wall time per Put/Get. Failures
// count Puts/Gets attempted; bytes count only successful transfers.
struct StoreMetrics {
  obs::Counter& puts;
  obs::Counter& put_bytes;
  obs::Counter& gets;
  obs::Counter& get_bytes;
  obs::Counter& io_failures;
  obs::Histogram& put_seconds;
  obs::Histogram& get_seconds;

  static StoreMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Global();
    static StoreMetrics* const metrics = new StoreMetrics{
        *registry.GetCounter("ppdm_store_puts_total"),
        *registry.GetCounter("ppdm_store_put_bytes_total"),
        *registry.GetCounter("ppdm_store_gets_total"),
        *registry.GetCounter("ppdm_store_get_bytes_total"),
        *registry.GetCounter("ppdm_store_io_failures_total"),
        *registry.GetHistogram("ppdm_store_put_seconds",
                               obs::Histogram::LatencyBucketsSeconds()),
        *registry.GetHistogram("ppdm_store_get_seconds",
                               obs::Histogram::LatencyBucketsSeconds())};
    return *metrics;
  }
};
constexpr char kHexDigits[] = "0123456789abcdef";

// Fault points at every stage a real disk can fail: armed chaos runs
// inject a Status exactly where EIO would surface. Disarmed cost: one
// relaxed atomic load per stage.
fault::FaultPoint& PutIoFault() {
  static fault::FaultPoint& point = fault::Point("store.put.io");
  return point;
}
fault::FaultPoint& PutSyncFault() {
  static fault::FaultPoint& point = fault::Point("store.put.sync");
  return point;
}
fault::FaultPoint& PutRenameFault() {
  static fault::FaultPoint& point = fault::Point("store.put.rename");
  return point;
}
fault::FaultPoint& GetIoFault() {
  static fault::FaultPoint& point = fault::Point("store.get.io");
  return point;
}

// Closes `fd` and removes `tmp` on an attempt that failed partway: the
// temp must never be left to masquerade as a future snapshot.
void AbandonTemp(int fd, const std::string& tmp) {
  if (fd >= 0) ::close(fd);
  std::error_code ignored;
  fs::remove(tmp, ignored);
}

bool PassThrough(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string EncodeSnapshotName(std::string_view name) {
  std::string encoded;
  encoded.reserve(name.size());
  for (char c : name) {
    if (PassThrough(c)) {
      encoded.push_back(c);
    } else {
      const auto byte = static_cast<unsigned char>(c);
      encoded.push_back('%');
      encoded.push_back(kHexDigits[byte >> 4]);
      encoded.push_back(kHexDigits[byte & 0xF]);
    }
  }
  return encoded;
}

Result<std::string> DecodeSnapshotName(std::string_view file_stem) {
  std::string name;
  name.reserve(file_stem.size());
  for (std::size_t i = 0; i < file_stem.size(); ++i) {
    const char c = file_stem[i];
    if (c == '%') {
      if (i + 2 >= file_stem.size() || HexValue(file_stem[i + 1]) < 0 ||
          HexValue(file_stem[i + 2]) < 0) {
        return Status::InvalidArgument(
            "snapshot file name has a malformed %XX escape");
      }
      name.push_back(static_cast<char>(HexValue(file_stem[i + 1]) * 16 +
                                       HexValue(file_stem[i + 2])));
      i += 2;
    } else if (PassThrough(c)) {
      name.push_back(c);
    } else {
      return Status::InvalidArgument(
          StrFormat("snapshot file name has unescaped byte 0x%02x",
                    static_cast<unsigned char>(c)));
    }
  }
  return name;
}

Result<SnapshotStore> SnapshotStore::Open(const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot create snapshot directory %s: %s",
                                     directory.c_str(),
                                     ec.message().c_str()));
  }
  if (!fs::is_directory(directory, ec)) {
    return Status::IoError(StrFormat("%s is not a directory",
                                     directory.c_str()));
  }
  // Sweep temp files orphaned by crashes mid-Put, which List skips
  // (wrong extension) and nothing else would ever delete — a
  // crash-looping checkpointed server must not grow the directory
  // unboundedly. Only stale temps go: a recent one may belong to a live
  // writer in another process.
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    if (entry.path().extension() != ".tmp") continue;
    const fs::file_time_type written = entry.last_write_time(entry_ec);
    if (entry_ec) continue;
    if (now - written > std::chrono::hours(1)) {
      fs::remove(entry.path(), entry_ec);
    }
  }
  return SnapshotStore(directory);
}

std::string SnapshotStore::PathFor(const std::string& name) const {
  return (fs::path(directory_) /
          (EncodeSnapshotName(name) + kSnapshotExtension))
      .string();
}

Status SnapshotStore::Put(const std::string& name,
                          std::string_view bytes) const {
  obs::ScopedSpan span("store.put", &StoreMetrics::Get().put_seconds,
                       &obs::TraceRing::Global(),
                       obs::RenderLabelSet({{"key", name}}));
  StoreMetrics::Get().puts.Increment();
  // An empty name would encode to the dotfile ".snap" — reachable by
  // Get/Contains but invisible to the extension-driven List scan.
  if (name.empty()) {
    StoreMetrics::Get().io_failures.Increment();
    return Status::InvalidArgument("snapshot name must be non-empty");
  }
  return retry::Retry(retry_, [&] { return PutOnce(name, bytes); });
}

Status SnapshotStore::PutOnce(const std::string& name,
                              std::string_view bytes) const {
  const std::string path = PathFor(name);
  // The temp name must be unique per writer: a spill tier and an operator
  // CLI may share the directory, and a deterministic "<path>.tmp" would
  // let their writes interleave and publish mixed content over a good
  // snapshot. pid + counter keeps concurrent processes and threads apart;
  // stale temps from crashes are skipped by List (wrong extension).
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string tmp = StrFormat(
      "%s.%d.%llu.tmp", path.c_str(), static_cast<int>(::getpid()),
      static_cast<unsigned long long>(
          tmp_serial.fetch_add(1, std::memory_order_relaxed)));

  if (Status injected = PutIoFault().Fire(); !injected.ok()) {
    StoreMetrics::Get().io_failures.Increment();
    return injected;
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    StoreMetrics::Get().io_failures.Increment();
    return Status::IoError(StrFormat("cannot open %s for writing: %s",
                                     tmp.c_str(), std::strerror(errno)));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      AbandonTemp(fd, tmp);
      StoreMetrics::Get().io_failures.Increment();
      return Status::IoError(StrFormat("short write to %s: %s", tmp.c_str(),
                                       std::strerror(err)));
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: without it a crash shortly after Put can leave
  // the *renamed* file empty or torn on some filesystems — the torn write
  // the pre-resilience store could report as success. A failed fsync or
  // close is kDataLoss, distinct from plain kIoError: the caller must not
  // trust the bytes it just "wrote".
  if (Status injected = PutSyncFault().Fire(); !injected.ok()) {
    AbandonTemp(fd, tmp);
    StoreMetrics::Get().io_failures.Increment();
    return injected;
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    AbandonTemp(fd, tmp);
    StoreMetrics::Get().io_failures.Increment();
    return Status::DataLoss(StrFormat("fsync failed on %s: %s", tmp.c_str(),
                                      std::strerror(err)));
  }
  if (::close(fd) != 0) {
    const int err = errno;
    AbandonTemp(-1, tmp);
    StoreMetrics::Get().io_failures.Increment();
    return Status::DataLoss(StrFormat("close failed on %s: %s", tmp.c_str(),
                                      std::strerror(err)));
  }
  if (Status injected = PutRenameFault().Fire(); !injected.ok()) {
    AbandonTemp(-1, tmp);
    StoreMetrics::Get().io_failures.Increment();
    return injected;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    AbandonTemp(-1, tmp);
    StoreMetrics::Get().io_failures.Increment();
    return Status::IoError(StrFormat("cannot publish %s: %s", path.c_str(),
                                     ec.message().c_str()));
  }
  // Make the directory entry durable too, best-effort: some filesystems
  // reject directory fsync (EINVAL), and the rename itself already
  // ordered correctly after the data fsync above.
  const int dir_fd = ::open(directory_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
  StoreMetrics::Get().put_bytes.Increment(bytes.size());
  return Status::Ok();
}

Result<std::string> SnapshotStore::Get(const std::string& name) const {
  obs::ScopedSpan span("store.get", &StoreMetrics::Get().get_seconds,
                       &obs::TraceRing::Global(),
                       obs::RenderLabelSet({{"key", name}}));
  StoreMetrics::Get().gets.Increment();
  return retry::Retry(retry_, [&] { return GetOnce(name); });
}

Result<std::string> SnapshotStore::GetOnce(const std::string& name) const {
  const std::string path = PathFor(name);
  std::error_code ec;
  if (name.empty() || !fs::exists(path, ec)) {
    return Status::NotFound(StrFormat("no snapshot named '%s' in %s",
                                      name.c_str(), directory_.c_str()));
  }
  if (Status injected = GetIoFault().Fire(); !injected.ok()) {
    StoreMetrics::Get().io_failures.Increment();
    return injected;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    StoreMetrics::Get().io_failures.Increment();
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    StoreMetrics::Get().io_failures.Increment();
    return Status::IoError(StrFormat("read failed on %s", path.c_str()));
  }
  StoreMetrics::Get().get_bytes.Increment(bytes.size());
  return bytes;
}

bool SnapshotStore::Contains(const std::string& name) const {
  std::error_code ec;
  return !name.empty() && fs::exists(PathFor(name), ec);
}

Status SnapshotStore::Delete(const std::string& name) const {
  std::error_code ec;
  if (name.empty() || !fs::remove(PathFor(name), ec)) {
    if (ec) {
      return Status::IoError(StrFormat("cannot delete snapshot '%s': %s",
                                       name.c_str(), ec.message().c_str()));
    }
    return Status::NotFound(StrFormat("no snapshot named '%s' in %s",
                                      name.c_str(), directory_.c_str()));
  }
  return Status::Ok();
}

Result<std::map<std::string, std::uint64_t>> SnapshotStore::List() const {
  std::map<std::string, std::uint64_t> sizes;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    const fs::path& path = entry.path();
    if (path.extension() != kSnapshotExtension) continue;
    const Result<std::string> name =
        DecodeSnapshotName(path.stem().string());
    if (!name.ok()) continue;  // foreign file; not ours to report
    const std::uintmax_t size = entry.file_size(entry_ec);
    if (entry_ec) continue;  // vanished between the scan and the stat
    sizes[name.value()] = size;
  }
  if (ec) {
    return Status::IoError(StrFormat("cannot list %s: %s",
                                     directory_.c_str(),
                                     ec.message().c_str()));
  }
  return sizes;
}

}  // namespace ppdm::store
