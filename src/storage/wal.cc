#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "dataset/dataset.h"

namespace skycube {

namespace {

constexpr char kSegmentMagic[8] = {'S', 'K', 'Y', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = 4 + 8 + 8;  // len, lsn, checksum
/// Sanity bound: a corrupt length field must not drive a giant read.
constexpr uint32_t kMaxPayloadBytes = 16u << 20;

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

/// Serializes one record; checksum covers the len and lsn fields plus the
/// payload, so a flip anywhere in the record (header included) is caught.
std::string EncodeRecord(uint64_t lsn, std::string_view payload) {
  std::string prefix;
  PutU32(&prefix, static_cast<uint32_t>(payload.size()));
  PutU64(&prefix, lsn);
  uint64_t checksum = Fnv1a64(prefix);
  // Continue the FNV stream over the payload without concatenating.
  for (unsigned char c : payload) {
    checksum ^= c;
    checksum *= 1099511628211ull;
  }
  std::string record = prefix;
  PutU64(&record, checksum);
  record.append(payload);
  return record;
}

std::string SegmentName(uint64_t start_lsn) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "wal-%016llx.log",
                static_cast<unsigned long long>(start_lsn));
  return buffer;
}

/// Lists wal-*.log segments in `dir` as (start_lsn, filename), ascending.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long lsn = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%16llx.log%n", &lsn, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      segments.emplace_back(lsn, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
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

/// Scans one segment's bytes. Appends records with lsn > after_lsn to
/// `out`; `*expected_lsn` is the contiguity cursor (0 = adopt the
/// segment's declared start). Returns the byte offset of the end of the
/// valid prefix; `*valid` reports whether the scan reached the physical
/// end without damage.
size_t ScanSegment(const std::string& bytes, uint64_t declared_start,
                   uint64_t after_lsn, uint64_t* expected_lsn,
                   std::vector<WalRecord>* out, bool* valid) {
  *valid = false;
  if (bytes.empty()) {
    // A crash between segment creation and its magic write leaves a
    // zero-byte file. It holds no records, so it is not damage — but only
    // when its declared start lines up with the contiguity cursor (a
    // mismatched empty segment still implies missing records).
    if (*expected_lsn == 0) *expected_lsn = declared_start;
    *valid = declared_start == *expected_lsn;
    return 0;
  }
  if (bytes.size() < sizeof(kSegmentMagic) ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return 0;
  }
  if (*expected_lsn == 0) *expected_lsn = declared_start;
  if (declared_start != *expected_lsn) {
    return sizeof(kSegmentMagic);  // inter-segment gap: damaged suffix
  }
  size_t offset = sizeof(kSegmentMagic);
  for (;;) {
    if (offset == bytes.size()) {
      *valid = true;  // clean end of segment
      return offset;
    }
    if (bytes.size() - offset < kHeaderBytes) return offset;  // torn header
    const uint32_t len = GetU32(bytes.data() + offset);
    if (len > kMaxPayloadBytes) return offset;
    const uint64_t lsn = GetU64(bytes.data() + offset + 4);
    const uint64_t stored_checksum = GetU64(bytes.data() + offset + 12);
    if (bytes.size() - offset - kHeaderBytes < len) return offset;  // torn
    const std::string_view payload(bytes.data() + offset + kHeaderBytes, len);
    uint64_t checksum =
        Fnv1a64(std::string_view(bytes.data() + offset, 12));
    for (unsigned char c : payload) {
      checksum ^= c;
      checksum *= 1099511628211ull;
    }
    if (checksum != stored_checksum) return offset;
    if (lsn != *expected_lsn) return offset;  // checksummed but out of place
    if (lsn > after_lsn && out != nullptr) {
      out->push_back(WalRecord{lsn, std::string(payload)});
    }
    ++*expected_lsn;
    offset += kHeaderBytes + len;
  }
}

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("WAL write failed: ") +
                              std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<FsyncPolicy> FsyncPolicyFromName(const std::string& name) {
  if (name == "always") return FsyncPolicy::kEveryRecord;
  if (name == "every") return FsyncPolicy::kEveryN;
  if (name == "timer") return FsyncPolicy::kInterval;
  return Status::InvalidArgument(
      "unknown fsync policy '" + name + "' (want: always, every, timer)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "always";
    case FsyncPolicy::kEveryN:
      return "every";
    case FsyncPolicy::kInterval:
      return "timer";
  }
  return "unknown";
}

std::string EncodeRowPayload(const std::vector<double>& values) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(values.size()));
  for (double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU64(&payload, bits);
  }
  return payload;
}

Result<std::vector<double>> DecodeRowPayload(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::InvalidArgument("row payload shorter than its header");
  }
  const uint32_t n = GetU32(payload.data());
  if (payload.size() != 4 + static_cast<size_t>(n) * 8) {
    return Status::InvalidArgument("row payload size mismatch");
  }
  std::vector<double> values(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t bits = GetU64(payload.data() + 4 + i * 8);
    std::memcpy(&values[i], &bits, sizeof(double));
  }
  if (!AllFinite(values)) {
    return Status::InvalidArgument("row payload holds a non-finite value");
  }
  return values;
}

const char* WalOpName(WalOp op) {
  switch (op) {
    case WalOp::kInsert:
      return "insert";
    case WalOp::kDelete:
      return "delete";
  }
  return "unknown";
}

std::string EncodeInsertPayload(const std::vector<double>& values,
                                uint32_t row, uint64_t timestamp_ms) {
  std::string payload;
  payload.push_back(static_cast<char>(WalOp::kInsert));
  PutU64(&payload, timestamp_ms);
  PutU32(&payload, row);
  PutU32(&payload, static_cast<uint32_t>(values.size()));
  for (double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU64(&payload, bits);
  }
  return payload;
}

std::string EncodeDeletePayload(uint32_t row, uint64_t timestamp_ms) {
  std::string payload;
  payload.push_back(static_cast<char>(WalOp::kDelete));
  PutU64(&payload, timestamp_ms);
  PutU32(&payload, row);
  return payload;
}

Result<WalOpRecord> DecodeOpPayload(std::string_view payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty WAL op payload");
  }
  const uint8_t tag = static_cast<unsigned char>(payload[0]);
  if (tag < 0x80) {
    // Legacy v2: a bare row payload starting with its dimension count.
    Result<std::vector<double>> values = DecodeRowPayload(payload);
    if (!values.ok()) return values.status();
    WalOpRecord record;
    record.op = WalOp::kInsert;
    record.legacy = true;
    record.values = std::move(values.value());
    return record;
  }
  if (tag == static_cast<uint8_t>(WalOp::kInsert)) {
    if (payload.size() < 1 + 8 + 4 + 4) {
      return Status::InvalidArgument("insert payload shorter than header");
    }
    WalOpRecord record;
    record.op = WalOp::kInsert;
    record.timestamp_ms = GetU64(payload.data() + 1);
    record.row = GetU32(payload.data() + 9);
    const uint32_t n = GetU32(payload.data() + 13);
    if (payload.size() != 17 + static_cast<size_t>(n) * 8) {
      return Status::InvalidArgument("insert payload size mismatch");
    }
    record.values.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t bits = GetU64(payload.data() + 17 + i * 8);
      std::memcpy(&record.values[i], &bits, sizeof(double));
    }
    if (!AllFinite(record.values)) {
      return Status::InvalidArgument("insert payload holds a non-finite value");
    }
    return record;
  }
  if (tag == static_cast<uint8_t>(WalOp::kDelete)) {
    if (payload.size() != 1 + 8 + 4) {
      return Status::InvalidArgument("delete payload size mismatch");
    }
    WalOpRecord record;
    record.op = WalOp::kDelete;
    record.timestamp_ms = GetU64(payload.data() + 1);
    record.row = GetU32(payload.data() + 9);
    return record;
  }
  return Status::InvalidArgument("unknown WAL op tag");
}

Result<std::vector<WalDumpSegment>> DumpWal(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    return Status::NotFound("no such WAL directory: " + dir);
  }
  std::vector<WalDumpSegment> segments;
  for (const auto& [start, name] : ListSegments(dir)) {
    Result<std::string> bytes = ReadFileBytes(dir + "/" + name);
    if (!bytes.ok()) return bytes.status();
    const std::string& b = bytes.value();
    WalDumpSegment segment;
    segment.file = name;
    segment.declared_start = start;
    segment.magic_ok =
        b.size() >= sizeof(kSegmentMagic) &&
        std::memcmp(b.data(), kSegmentMagic, sizeof(kSegmentMagic)) == 0;
    segment.empty = b.empty();
    if (!segment.magic_ok) {
      segment.trailing_bytes = b.size();
      segments.push_back(std::move(segment));
      continue;
    }
    size_t offset = sizeof(kSegmentMagic);
    while (offset < b.size()) {
      if (b.size() - offset < kHeaderBytes) break;  // torn header
      const uint32_t len = GetU32(b.data() + offset);
      WalDumpRecord record;
      record.lsn = GetU64(b.data() + offset + 4);
      record.payload_bytes = len;
      if (len > kMaxPayloadBytes || b.size() - offset - kHeaderBytes < len) {
        // Untrusted length: report the header as a damaged record and stop.
        segment.records.push_back(std::move(record));
        break;
      }
      const std::string_view payload(b.data() + offset + kHeaderBytes, len);
      uint64_t checksum = Fnv1a64(std::string_view(b.data() + offset, 12));
      for (unsigned char c : payload) {
        checksum ^= c;
        checksum *= 1099511628211ull;
      }
      record.checksum_ok = checksum == GetU64(b.data() + offset + 12);
      if (record.checksum_ok) {
        if (Result<WalOpRecord> decoded = DecodeOpPayload(payload);
            decoded.ok()) {
          record.decode_ok = true;
          record.record = std::move(decoded.value());
        }
      }
      const bool damaged = !record.checksum_ok;
      segment.records.push_back(std::move(record));
      // A failed checksum covers the length field too; walking past it
      // would be guesswork.
      if (damaged) break;
      offset += kHeaderBytes + len;
    }
    segment.trailing_bytes = b.size() - offset;
    segments.push_back(std::move(segment));
  }
  return segments;
}

uint64_t WalOldestStart(const std::string& dir) {
  const auto segments = ListSegments(dir);
  return segments.empty() ? 0 : segments.front().first;
}

Result<WalReadResult> ReadWal(const std::string& dir, uint64_t after_lsn) {
  WalReadResult result;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) return result;
  const auto segments = ListSegments(dir);
  if (segments.empty()) return result;
  // Start at the last segment that can contain after_lsn + 1; everything
  // before it holds only records the caller already has.
  size_t first = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first <= after_lsn + 1) first = i;
  }
  if (segments[first].first > after_lsn + 1) {
    // The log no longer reaches back to after_lsn + 1 (e.g. it was
    // truncated past the checkpoint being recovered from). Replaying the
    // later records would silently skip a gap; surface it instead.
    result.damaged_suffix = true;
    for (const auto& [start, name] : segments) {
      std::error_code size_ec;
      result.discarded_bytes +=
          std::filesystem::file_size(dir + "/" + name, size_ec);
    }
    return result;
  }
  uint64_t expected_lsn = 0;
  for (size_t i = first; i < segments.size(); ++i) {
    const std::string path = dir + "/" + segments[i].second;
    Result<std::string> bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    ++result.segments_scanned;
    bool valid = false;
    const size_t end = ScanSegment(bytes.value(), segments[i].first,
                                   after_lsn, &expected_lsn,
                                   &result.records, &valid);
    if (!valid) {
      result.damaged_suffix = true;
      result.discarded_bytes += bytes.value().size() - end;
      for (size_t j = i + 1; j < segments.size(); ++j) {
        std::error_code size_ec;
        result.discarded_bytes += std::filesystem::file_size(
            dir + "/" + segments[j].second, size_ec);
      }
      break;
    }
  }
  result.last_valid_lsn = expected_lsn == 0 ? 0 : expected_lsn - 1;
  return result;
}

WriteAheadLog::WriteAheadLog(std::string dir, uint64_t next_lsn,
                             WalOptions options)
    : dir_(std::move(dir)),
      options_(options),
      next_lsn_(next_lsn),
      last_sync_(std::chrono::steady_clock::now()) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) {
    // Best effort: a destructor cannot report failure. Callers that need
    // the durability guarantee call Sync()/Drain() first.
    if (sync_pending_) (void)::fdatasync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& dir, uint64_t next_lsn, WalOptions options) {
  if (next_lsn == 0) {
    return Status::InvalidArgument("WAL LSNs start at 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL dir: " + dir);
  }
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(dir, next_lsn, options));

  // Discard everything at or beyond next_lsn: whole segments first, then
  // the suffix of the segment containing it.
  auto segments = ListSegments(dir);
  while (!segments.empty() && segments.back().first >= next_lsn) {
    const std::string path = dir + "/" + segments.back().second;
    std::error_code size_ec;
    wal->stats_.open_discarded_bytes +=
        std::filesystem::file_size(path, size_ec);
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove WAL segment: " + path);
    }
    segments.pop_back();
  }
  if (!segments.empty()) {
    // Find where the valid prefix below next_lsn ends in the last segment
    // and physically truncate there (torn tails and rejected suffixes go).
    const std::string path = dir + "/" + segments.back().second;
    Result<std::string> bytes = ReadFileBytes(path);
    if (!bytes.ok()) return bytes.status();
    uint64_t expected = 0;
    bool valid = false;
    const size_t keep =
        ScanSegment(bytes.value(), segments.back().first,
                    /*after_lsn=*/next_lsn - 1, &expected, nullptr, &valid);
    // Scanning stops at next_lsn only via damage or segment end; also stop
    // explicitly: records with lsn >= next_lsn are untrusted.
    size_t end = keep;
    if (expected > next_lsn) {
      // Valid records at or beyond next_lsn exist but are untrusted;
      // re-walk the (already checksum-verified) lengths to find the byte
      // offset where lsn == next_lsn starts.
      end = sizeof(kSegmentMagic);
      size_t offset = sizeof(kSegmentMagic);
      uint64_t cursor = segments.back().first;
      const std::string& b = bytes.value();
      while (offset + kHeaderBytes <= b.size() && cursor < next_lsn) {
        const uint32_t len = GetU32(b.data() + offset);
        offset += kHeaderBytes + len;
        ++cursor;
        end = offset;
      }
    }
    if (end < bytes.value().size()) {
      wal->stats_.open_discarded_bytes += bytes.value().size() - end;
      std::filesystem::resize_file(path, end, ec);
      if (ec) {
        return Status::Internal("cannot truncate WAL segment: " + path);
      }
    }
    // Re-open the trimmed segment for appending.
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::Internal("cannot open WAL segment for append: " + path);
    }
    wal->fd_ = fd;
    wal->segment_start_lsn_ = segments.back().first;
    wal->segment_size_ = end;
    wal->sync_pending_ = true;  // the truncation itself must reach disk
    wal->segments_.assign(segments.begin(), segments.end());
    if (Status sync = wal->Sync(); !sync.ok()) return sync;
    if (Status dir_sync = wal->SyncDir(); !dir_sync.ok()) return dir_sync;
  } else {
    if (Status rotate = wal->RotateSegment(); !rotate.ok()) return rotate;
  }
  return wal;
}

Status WriteAheadLog::RotateSegment() {
  if (fd_ >= 0) {
    if (sync_pending_) {
      if (Status sync = Sync(); !sync.ok()) return sync;
    }
    ::close(fd_);
    fd_ = -1;
  }
  const std::string name = SegmentName(next_lsn_);
  const std::string path = dir_ + "/" + name;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create WAL segment: " + path);
  }
  if (Status write = WriteAll(fd, kSegmentMagic, sizeof(kSegmentMagic));
      !write.ok()) {
    ::close(fd);
    return write;
  }
  if (::fdatasync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fdatasync failed on new segment: " + path);
  }
  fd_ = fd;
  segment_start_lsn_ = next_lsn_;
  segment_size_ = sizeof(kSegmentMagic);
  records_since_sync_ = 0;
  sync_pending_ = false;
  segments_.emplace_back(next_lsn_, name);
  ++stats_.segments_created;
  last_sync_ = std::chrono::steady_clock::now();
  return SyncDir();  // the new name must survive a crash
}

Status WriteAheadLog::SyncDir() {
  const int dirfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd < 0) {
    return Status::Internal("cannot open WAL dir for fsync: " + dir_);
  }
  const int rc = ::fsync(dirfd);
  ::close(dirfd);
  if (rc != 0) {
    return Status::Internal("fsync of WAL dir failed: " + dir_);
  }
  return Status::Ok();
}

Result<uint64_t> WriteAheadLog::Append(std::string_view payload) {
  if (failed_) {
    return Status::Internal("WAL is failed after a prior I/O error");
  }
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("WAL payload too large");
  }
  if (segment_size_ >= options_.segment_bytes) {
    if (Status rotate = RotateSegment(); !rotate.ok()) {
      failed_ = true;
      return rotate;
    }
  }
  const uint64_t lsn = next_lsn_;
  const std::string record = EncodeRecord(lsn, payload);
  // Crash-test hook: die after writing only half the record — a torn tail
  // the next open must truncate.
  if (SKYCUBE_FAULT_POINT("wal.append_torn")) {
    (void)WriteAll(fd_, record.data(), record.size() / 2);
    (void)::fdatasync(fd_);  // make the torn half durable, then die
    std::_Exit(42);
  }
  if (Status write = WriteAll(fd_, record.data(), record.size());
      !write.ok()) {
    failed_ = true;
    return write;
  }
  // Crash-test hook: die after the full write but before the policy sync —
  // the record may or may not survive, and either outcome must recover.
  if (SKYCUBE_FAULT_POINT("wal.append_crash")) std::_Exit(42);
  ++next_lsn_;
  segment_size_ += record.size();
  ++records_since_sync_;
  sync_pending_ = true;
  ++stats_.records_appended;
  stats_.bytes_appended += record.size();

  bool want_sync = false;
  switch (options_.fsync_policy) {
    case FsyncPolicy::kEveryRecord:
      want_sync = true;
      break;
    case FsyncPolicy::kEveryN:
      want_sync = records_since_sync_ >= options_.fsync_every_n;
      break;
    case FsyncPolicy::kInterval:
      want_sync = std::chrono::steady_clock::now() - last_sync_ >=
                  options_.fsync_interval;
      break;
  }
  if (want_sync) {
    if (Status sync = Sync(); !sync.ok()) {
      failed_ = true;
      return sync;
    }
  }
  return lsn;
}

Status WriteAheadLog::Sync() {
  if (!sync_pending_ || fd_ < 0) return Status::Ok();
  if (::fdatasync(fd_) != 0) {
    return Status::Internal("WAL fdatasync failed");
  }
  sync_pending_ = false;
  records_since_sync_ = 0;
  ++stats_.fsyncs;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

Status WriteAheadLog::TruncateThrough(uint64_t lsn) {
  // Segment i covers [start_i, start_{i+1} - 1]; deletable iff that whole
  // range is <= lsn and it is not the active segment.
  bool deleted = false;
  while (segments_.size() > 1 && segments_[1].first <= lsn + 1) {
    const std::string path = dir_ + "/" + segments_.front().second;
    std::error_code ec;
    if (!std::filesystem::remove(path, ec)) {
      return Status::Internal("cannot remove WAL segment: " + path);
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_deleted;
    deleted = true;
  }
  return deleted ? SyncDir() : Status::Ok();
}

WalStats WriteAheadLog::stats() const {
  WalStats stats = stats_;
  stats.next_lsn = next_lsn_;
  stats.live_segments = segments_.size();
  return stats;
}

}  // namespace skycube
