#include "storage/replication.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "storage/checkpointer.h"
#include "storage/durable_ingest.h"

namespace skycube {

namespace {

// WalShipper: batch ceiling when a fetch names none, hard batch ceiling
// whatever it asks for, and long-poll ceiling of a caught-up fetch.
constexpr uint32_t kShipDefaultBatch = 256;
constexpr uint32_t kShipMaxBatch = 4096;
constexpr std::chrono::milliseconds kShipMaxWait{2000};
// A follower whose last fetch is older than this stops counting toward
// followers(), and WaitAcked stops waiting for its ack.
constexpr std::chrono::milliseconds kFollowerTtl{10000};

// WalFollower: records per fetch, the long-poll wait it asks for when
// caught up, and the pause before retrying a failed fetch or apply.
constexpr uint32_t kFollowBatch = 512;
constexpr std::chrono::milliseconds kFollowPollWait{500};
constexpr std::chrono::milliseconds kFollowRetryBackoff{200};

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open: " + path);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("read failed: " + path);
    }
    if (n == 0) break;
    bytes.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("write failed: ") +
                              std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) {
    return Status::Internal("cannot open dir for fsync: " + dir);
  }
  const int rc = ::fsync(dirfd);
  ::close(dirfd);
  if (rc != 0) return Status::Internal("fsync of dir failed: " + dir);
  return Status::Ok();
}

}  // namespace

std::string EncodeShippedRecords(const std::vector<WalRecord>& records) {
  std::string out;
  for (const WalRecord& record : records) {
    PutU64(&out, record.lsn);
    PutU32(&out, static_cast<uint32_t>(record.payload.size()));
    out.append(record.payload);
  }
  return out;
}

Result<std::vector<WalRecord>> DecodeShippedRecords(std::string_view bytes) {
  std::vector<WalRecord> records;
  size_t offset = 0;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < 12) {
      return Status::InvalidArgument("truncated shipped record header");
    }
    WalRecord record;
    record.lsn = GetU64(bytes.data() + offset);
    const uint32_t len = GetU32(bytes.data() + offset + 8);
    offset += 12;
    if (bytes.size() - offset < len) {
      return Status::InvalidArgument("truncated shipped record payload");
    }
    record.payload.assign(bytes.data() + offset, len);
    offset += len;
    records.push_back(std::move(record));
  }
  return records;
}

// --- WalShipper -----------------------------------------------------------

WalShipper::WalShipper(std::string dir) : dir_(std::move(dir)) {}

Result<ShippedBatch> WalShipper::Fetch(uint64_t ack_lsn,
                                       uint32_t max_records,
                                       std::chrono::milliseconds wait) {
  const uint32_t batch =
      max_records == 0 ? kShipDefaultBatch
                       : std::min(max_records, kShipMaxBatch);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::min(wait, kShipMaxWait);
  {
    MutexLock lock(&mu_);
    ++stats_.fetches;
    last_fetch_ = std::chrono::steady_clock::now();
    if (ack_lsn > acked_lsn_) {
      acked_lsn_ = ack_lsn;
      ack_advanced_.NotifyAll();
    }
  }
  for (;;) {
    // The log may have been truncated (checkpoint retention) past the
    // follower's ack — incremental catch-up is impossible, re-bootstrap.
    const uint64_t oldest = WalOldestStart(dir_);
    if (oldest == 0 || oldest > ack_lsn + 1) {
      return Status::NotFound(
          "WAL no longer reaches back to the follower's ack; snapshot "
          "bootstrap required");
    }
    Result<WalReadResult> read = ReadWal(dir_, ack_lsn);
    if (!read.ok()) return read.status();
    WalReadResult& result = read.value();
    // A torn in-flight append just bounds the batch at the valid prefix —
    // the next fetch picks up the rest once the appender finishes it.
    if (!result.records.empty()) {
      if (result.records.size() > batch) result.records.resize(batch);
      ShippedBatch shipped;
      shipped.records = std::move(result.records);
      MutexLock lock(&mu_);
      tip_lsn_ = std::max(tip_lsn_, result.last_valid_lsn);
      shipped.tip_lsn = tip_lsn_;
      stats_.records_shipped += shipped.records.size();
      return shipped;
    }
    // Caught up: long-poll until an append lands or the deadline passes.
    MutexLock lock(&mu_);
    tip_lsn_ = std::max(tip_lsn_, result.last_valid_lsn);
    if (std::chrono::steady_clock::now() >= deadline ||
        tip_lsn_ > ack_lsn) {
      // Deadline, or a notify raced the read — return empty (the follower
      // refetches immediately when tip > ack).
      ShippedBatch shipped;
      shipped.tip_lsn = tip_lsn_;
      return shipped;
    }
    while (tip_lsn_ <= ack_lsn) {
      if (!tip_advanced_.WaitUntil(&mu_, deadline)) break;
    }
    if (tip_lsn_ <= ack_lsn) {
      ShippedBatch shipped;
      shipped.tip_lsn = tip_lsn_;
      return shipped;
    }
    // New records appeared — loop around and read them.
  }
}

Result<ReplicationSnapshot> WalShipper::Snapshot() {
  const std::vector<uint64_t> lsns = ListCheckpoints(dir_);
  if (lsns.empty()) {
    return Status::NotFound("no checkpoint to ship from " + dir_);
  }
  const uint64_t lsn = lsns.back();
  Result<std::string> bytes =
      ReadFileBytes(dir_ + "/" + CheckpointFileName(lsn));
  if (!bytes.ok()) return bytes.status();
  ReplicationSnapshot snapshot;
  snapshot.lsn = lsn;
  snapshot.bytes = std::move(bytes).value();
  MutexLock lock(&mu_);
  ++stats_.snapshots_shipped;
  return snapshot;
}

void WalShipper::NotifyAppended(uint64_t lsn) {
  MutexLock lock(&mu_);
  if (lsn > tip_lsn_) {
    tip_lsn_ = lsn;
    tip_advanced_.NotifyAll();
  }
}

bool WalShipper::WaitAcked(uint64_t lsn, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  ++stats_.fence_waits;
  while (acked_lsn_ < lsn) {
    const auto now = std::chrono::steady_clock::now();
    // Nothing to wait for without a live follower: degrade immediately
    // rather than stalling every mutation while the replica is down.
    const bool follower_live =
        last_fetch_ != std::chrono::steady_clock::time_point{} &&
        now - last_fetch_ <= kFollowerTtl;
    if (now >= deadline || !follower_live) {
      ++stats_.fence_timeouts;
      return false;
    }
    ack_advanced_.WaitUntil(&mu_, deadline);
  }
  return true;
}

WalShipperStats WalShipper::stats() const {
  MutexLock lock(&mu_);
  WalShipperStats stats = stats_;
  stats.acked_lsn = acked_lsn_;
  stats.tip_lsn = tip_lsn_;
  const auto now = std::chrono::steady_clock::now();
  stats.followers =
      (last_fetch_ != std::chrono::steady_clock::time_point{} &&
       now - last_fetch_ <= kFollowerTtl)
          ? 1
          : 0;
  return stats;
}

// --- Bootstrap / rewind ---------------------------------------------------

Status InstallSnapshot(const std::string& dir, uint64_t lsn,
                       std::string_view bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create data dir: " + dir);
  const std::string final_path = dir + "/" + CheckpointFileName(lsn);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create snapshot file: " + tmp_path);
  }
  Status wrote = WriteAll(fd, bytes.data(), bytes.size());
  if (wrote.ok() && ::fsync(fd) != 0) {
    wrote = Status::Internal("fsync failed: " + tmp_path);
  }
  ::close(fd);
  if (!wrote.ok()) {
    std::filesystem::remove(tmp_path, ec);
    return wrote;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    std::filesystem::remove(tmp_path, ec);
    return Status::Internal("cannot rename snapshot into place: " +
                            final_path);
  }
  if (Status synced = SyncDir(dir); !synced.ok()) return synced;
  // The file is self-validating; prove it loads before anyone recovers
  // from it, so a corrupted ship fails here instead of at serve time.
  if (Result<CheckpointData> loaded = LoadCheckpoint(dir, lsn);
      !loaded.ok()) {
    std::filesystem::remove(final_path, ec);
    return Status::Internal("shipped snapshot failed validation: " +
                            loaded.status().message());
  }
  return Status::Ok();
}

Status WipeDurableState(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return Status::Ok();
  bool removed_any = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool wal = name.rfind("wal-", 0) == 0;
    const bool checkpoint = name.rfind("checkpoint-", 0) == 0;
    if (!wal && !checkpoint) continue;
    std::error_code remove_ec;
    if (!std::filesystem::remove(entry.path(), remove_ec)) {
      return Status::Internal("cannot remove: " + entry.path().string());
    }
    removed_any = true;
  }
  if (ec) return Status::Internal("cannot list data dir: " + dir);
  if (removed_any) {
    if (Status synced = SyncDir(dir); !synced.ok()) return synced;
  }
  return Status::Ok();
}

Status RewindDurableState(const std::string& dir, uint64_t fence_lsn) {
  bool has_base = false;
  for (uint64_t lsn : ListCheckpoints(dir)) {
    if (lsn <= fence_lsn) {
      has_base = true;
      continue;
    }
    const std::string path = dir + "/" + CheckpointFileName(lsn);
    std::error_code ec;
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove checkpoint: " + path);
    }
  }
  const uint64_t oldest = WalOldestStart(dir);
  if (!has_base && (oldest == 0 || oldest > 1)) {
    return Status::InvalidArgument(
        "rewind would lose the base state: no checkpoint at or below the "
        "fence and the WAL does not reach back to LSN 1");
  }
  if (Status synced = SyncDir(dir); !synced.ok()) return synced;
  // Opening the WAL at fence + 1 physically truncates everything beyond
  // the fence; the handle is closed immediately — the caller reopens the
  // directory through DurableIngest::Open.
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(dir, fence_lsn + 1);
  if (!wal.ok()) return wal.status();
  return Status::Ok();
}

// --- WalFollower ----------------------------------------------------------

WalFollower::WalFollower(DurableIngest* ingest, ReplicationSource* source,
                         AppliedCallback on_applied,
                         WalFollowerOptions options)
    : ingest_(ingest),
      source_(source),
      on_applied_(std::move(on_applied)),
      options_(options) {}

WalFollower::~WalFollower() { Stop(); }

void WalFollower::Start() {
  {
    MutexLock lock(&mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
    stats_.running = true;
  }
  thread_ = std::thread([this] { Run(); });
}

void WalFollower::Stop() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    stop_ = true;
    stop_cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  MutexLock lock(&mu_);
  running_ = false;
  stats_.running = false;
}

uint64_t WalFollower::applied_lsn() const {
  MutexLock lock(&mu_);
  return stats_.applied_lsn;
}

WalFollowerStats WalFollower::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

void WalFollower::Run() {
  // The apply cursor: everything through this LSN is already in our WAL.
  uint64_t applied = ingest_->stats().wal.next_lsn - 1;
  {
    MutexLock lock(&mu_);
    stats_.applied_lsn = applied;
  }
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (stop_) return;
    }
    Result<ShippedBatch> fetched =
        source_->Fetch(applied, kFollowBatch, kFollowPollWait);
    if (!fetched.ok()) {
      MutexLock lock(&mu_);
      ++stats_.fetch_errors;
      stats_.last_error = fetched.status().message();
      if (stop_) return;
      // Includes the truncated-past-our-ack case: keep retrying so an
      // operator restart (which re-bootstraps) finds the loop alive and
      // the error visible in stats.
      stop_cv_.WaitUntil(
          &mu_, std::chrono::steady_clock::now() + kFollowRetryBackoff);
      continue;
    }
    {
      MutexLock lock(&mu_);
      stats_.tip_lsn = std::max(stats_.tip_lsn, fetched.value().tip_lsn);
    }
    for (const WalRecord& record : fetched.value().records) {
      {
        MutexLock lock(&mu_);
        if (stop_) return;
      }
      Result<InsertHandler::Applied> result =
          ingest_->ApplyReplicated(record.lsn, record.payload);
      if (!result.ok()) {
        MutexLock lock(&mu_);
        ++stats_.apply_errors;
        stats_.last_error = result.status().message();
        if (stop_) return;
        stop_cv_.WaitUntil(&mu_, std::chrono::steady_clock::now() +
                                     kFollowRetryBackoff);
        break;  // refetch from the cursor; the stream must stay contiguous
      }
      applied = record.lsn;
      {
        MutexLock lock(&mu_);
        stats_.applied_lsn = applied;
        ++stats_.records_applied;
      }
      if (on_applied_ && result.value().cube != nullptr) {
        on_applied_(result.value());
      }
    }
    if (options_.coalesce.count() > 0 &&
        applied >= fetched.value().tip_lsn) {
      // Caught up: let appends accumulate so the next fetch carries a
      // batch instead of waking per record. Stop() interrupts the pause.
      MutexLock lock(&mu_);
      if (stop_) return;
      stop_cv_.WaitUntil(
          &mu_, std::chrono::steady_clock::now() + options_.coalesce);
    }
  }
}

// --- ReplicatedInsertHandler ----------------------------------------------

ReplicatedInsertHandler::ReplicatedInsertHandler(
    InsertHandler* base, WalShipper* shipper,
    std::chrono::milliseconds fence_timeout)
    : base_(base), shipper_(shipper), fence_timeout_(fence_timeout) {}

Result<InsertHandler::Applied> ReplicatedInsertHandler::Fence(
    Result<Applied> applied) {
  if (!applied.ok() || applied.value().lsn == 0) return applied;
  shipper_->NotifyAppended(applied.value().lsn);
  if (fence_timeout_.count() > 0) {
    // Best effort: a timeout degrades this mutation to async replication
    // (counted in the shipper's stats), it does not fail the ack — the
    // record is durable on the primary either way.
    (void)shipper_->WaitAcked(applied.value().lsn, fence_timeout_);
  }
  return applied;
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyInsert(
    const std::vector<double>& values, uint64_t timestamp_ms) {
  return Fence(base_->ApplyInsert(values, timestamp_ms));
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyDelete(
    ObjectId id) {
  return Fence(base_->ApplyDelete(id));
}

Result<InsertHandler::Applied> ReplicatedInsertHandler::ApplyExpire(
    uint64_t cutoff_ms) {
  return Fence(base_->ApplyExpire(cutoff_ms));
}

int ReplicatedInsertHandler::num_dims() const { return base_->num_dims(); }

}  // namespace skycube
