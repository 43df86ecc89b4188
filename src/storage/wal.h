// Append-only write-ahead log for the ingest path (docs/ROBUSTNESS.md,
// "Durability & recovery").
//
// The WAL is a directory of segment files named wal-<16hex-first-lsn>.log.
// Each segment starts with the 8-byte magic "SKYWAL01"; records follow
// back-to-back in the binary layout
//
//   uint32 payload_len | uint64 lsn | uint64 checksum | payload bytes
//
// (all integers little-endian, checksum = FNV-1a 64 over the len and lsn
// fields plus the payload). LSNs are assigned contiguously starting at the
// value passed to Open; a record is the unit of both atomicity and
// validation — any bit flip or truncation inside a record changes its
// digest, so readers can always find the exact valid prefix of the log.
//
// Durability is governed by FsyncPolicy: fdatasync after every record
// (Append returns ⇒ the record survives power loss), after every N
// records, or when at least `fsync_interval` has elapsed since the last
// sync (checked on append; there is no background timer thread). An
// explicit Sync() is always available, and rotation/close always sync.
//
// Opening for append truncates the torn tail: everything from `next_lsn`
// on — a half-written record from a crash mid-append, or records a prior
// recovery decided not to trust — is physically discarded so new appends
// continue a clean, contiguous log. Reading (ReadWal) validates every
// record and stops at the first damaged one, reporting whether the
// physical log continued past it.
#ifndef SKYCUBE_STORAGE_WAL_H_
#define SKYCUBE_STORAGE_WAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace skycube {

/// When an Append becomes durable (fdatasync) — the latency/durability
/// trade of the ingest path.
enum class FsyncPolicy {
  kEveryRecord,  // sync before Append returns; an ack is never lost
  kEveryN,       // sync every fsync_every_n records
  kInterval,     // sync when fsync_interval elapsed since the last sync
};

/// Parses "always" / "every" / "timer" (the --fsync-policy spellings);
/// fails with kInvalidArgument on anything else.
Result<FsyncPolicy> FsyncPolicyFromName(const std::string& name);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Records between syncs under kEveryN.
  int fsync_every_n = 64;
  /// Maximum un-synced age under kInterval (checked at append time).
  std::chrono::milliseconds fsync_interval{5};
  /// Rotate to a new segment once the active one reaches this size.
  size_t segment_bytes = 4u << 20;
};

/// Cumulative counters of one WriteAheadLog instance.
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t segments_created = 0;
  uint64_t segments_deleted = 0;   // by TruncateThrough
  /// Bytes discarded by Open (torn tail / untrusted suffix).
  uint64_t open_discarded_bytes = 0;
  uint64_t next_lsn = 0;
  /// Segments currently on disk (including the active one).
  uint64_t live_segments = 0;
};

/// One decoded log record.
struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
};

/// Outcome of a read pass over the log directory.
struct WalReadResult {
  /// Valid records with lsn > after_lsn, in LSN order.
  std::vector<WalRecord> records;
  /// Last valid LSN seen anywhere in the log (0 if none).
  uint64_t last_valid_lsn = 0;
  /// True iff the scan stopped at a damaged/torn record or an LSN gap with
  /// physical log remaining after it — i.e. a suffix was discarded.
  bool damaged_suffix = false;
  /// Physical bytes in the discarded suffix (lower bound: the remainder of
  /// the segment where the scan stopped plus whole later segments).
  uint64_t discarded_bytes = 0;
  uint64_t segments_scanned = 0;
};

/// Validates and decodes every record in `dir` with lsn > after_lsn,
/// stopping at the first damaged record or LSN discontinuity. Read-only:
/// never truncates or deletes anything. An empty/absent directory yields an
/// empty result, not an error.
[[nodiscard]] Result<WalReadResult> ReadWal(const std::string& dir,
                                            uint64_t after_lsn);

/// Start LSN of the oldest segment in `dir` (0 when it holds none). The
/// replication shipper uses it to distinguish "follower is caught up" from
/// "the log was truncated past the follower's ack" without a full read.
uint64_t WalOldestStart(const std::string& dir);

/// The append handle. Not thread-safe; callers serialize appends (the
/// ingest path holds one mutex across WAL append + cube update anyway).
class WriteAheadLog {
 public:
  /// Opens `dir` (created if missing) for appending records starting at
  /// `next_lsn`. Any physical log content at or beyond `next_lsn` — torn
  /// tails, or records a recovery pass rejected — is discarded so the log
  /// stays contiguous. Pass the next_lsn a recovery pass decided on, or
  /// checkpoint_lsn + 1 when bootstrapping.
  [[nodiscard]] static Result<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& dir, uint64_t next_lsn, WalOptions options = {});

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record, returning its LSN. When this returns OK the record
  /// is durable per the fsync policy (always, for kEveryRecord). Appends
  /// after any I/O error keep failing — the log never silently skips.
  [[nodiscard]] Result<uint64_t> Append(std::string_view payload);

  /// Forces an fdatasync of the active segment (no-op if nothing pending).
  [[nodiscard]] Status Sync();

  /// Deletes whole segments whose every record has lsn <= `lsn` (the active
  /// segment is never deleted). Called after a checkpoint made that prefix
  /// redundant.
  [[nodiscard]] Status TruncateThrough(uint64_t lsn);

  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& dir() const { return dir_; }
  WalStats stats() const;

 private:
  WriteAheadLog(std::string dir, uint64_t next_lsn, WalOptions options);

  /// Opens a fresh segment whose name encodes next_lsn_.
  [[nodiscard]] Status RotateSegment();
  [[nodiscard]] Status SyncDir();

  std::string dir_;
  WalOptions options_;
  uint64_t next_lsn_ = 1;
  int fd_ = -1;                  // active segment
  uint64_t segment_start_lsn_ = 0;
  size_t segment_size_ = 0;
  int records_since_sync_ = 0;
  bool sync_pending_ = false;
  std::chrono::steady_clock::time_point last_sync_;
  bool failed_ = false;          // sticky after an I/O error
  /// start-lsn -> file name, for every live segment (including active).
  std::vector<std::pair<uint64_t, std::string>> segments_;
  WalStats stats_;
};

/// Payload codec for legacy (format v2) ingest records: one inserted row.
///   uint32 num_dims | num_dims doubles (little-endian bit patterns)
std::string EncodeRowPayload(const std::vector<double>& values);
/// Decodes; fails with kInvalidArgument on a size mismatch (a checksummed
/// record of the wrong shape — format drift, not corruption) or a
/// non-finite value (never a valid row; replay must not bring one back).
[[nodiscard]] Result<std::vector<double>> DecodeRowPayload(
    std::string_view payload);

/// Op-typed payloads (format v3). The first payload byte discriminates the
/// format: v3 op tags are >= 0x80, while a legacy v2 payload starts with
/// the low byte of its uint32 dimension count (always < 0x80 — dimension
/// counts are bounded by kMaxDims). Mixed segments are fine; the record
/// framing (len | lsn | checksum) is unchanged.
enum class WalOp : uint8_t {
  kInsert = 0x81,  // u8 op | u64 ts_ms | u32 row | u32 count | count doubles
  kDelete = 0x82,  // u8 op | u64 ts_ms | u32 row
};

/// Short lowercase name ("insert", "delete").
const char* WalOpName(WalOp op);

/// One decoded op-typed payload. For legacy v2 payloads, op is kInsert,
/// timestamp_ms is 0, `legacy` is set, and `row` is meaningless (legacy
/// records predate explicit row ids; replay appends at the current end).
struct WalOpRecord {
  WalOp op = WalOp::kInsert;
  uint64_t timestamp_ms = 0;
  bool legacy = false;
  std::vector<double> values;  // kInsert only
  /// kInsert: the object id the row was assigned at ingest (== dataset size
  /// before the insert) — lets a WAL-only rebuild keep ids exact.
  /// kDelete: the target object id.
  uint32_t row = 0;
};

/// v3 insert payload: the row's values, the object id it was assigned, and
/// its ingest timestamp (ms since epoch; 0 = no timestamp, never expires).
std::string EncodeInsertPayload(const std::vector<double>& values,
                                uint32_t row, uint64_t timestamp_ms);
/// v3 delete payload: the target row id plus the delete's timestamp.
std::string EncodeDeletePayload(uint32_t row, uint64_t timestamp_ms);
/// Decodes a v3 payload, falling back to the legacy v2 row codec when the
/// first byte is below 0x80. Fails with kInvalidArgument on size mismatch,
/// an unknown op tag, or a non-finite insert value.
[[nodiscard]] Result<WalOpRecord> DecodeOpPayload(std::string_view payload);

/// One record as seen by the read-only inspector (tools/skycube_waldump):
/// framing validity plus the decoded op when the payload parses.
struct WalDumpRecord {
  uint64_t lsn = 0;
  size_t payload_bytes = 0;
  bool checksum_ok = false;  // framing (len/lsn/checksum) validates
  bool decode_ok = false;    // payload parsed as a v2/v3 op
  WalOpRecord record;        // valid iff decode_ok
};

/// One scanned segment file. Scanning stops at the first record whose
/// framing fails (a corrupt length field is untrusted), reporting it as a
/// final record with checksum_ok = false plus the remaining bytes.
struct WalDumpSegment {
  std::string file;             // file name within the directory
  uint64_t declared_start = 0;  // start LSN from the file name
  bool magic_ok = false;
  /// Zero-byte file: a rotation that crashed before writing the magic. No
  /// records, and — as the final segment — not damage.
  bool empty = false;
  std::vector<WalDumpRecord> records;
  uint64_t trailing_bytes = 0;  // undecodable suffix (0 on a clean segment)
};

/// Read-only per-record inspection of every segment in `dir`, in LSN
/// order. Unlike ReadWal this does not stop at inter-segment gaps and
/// reports damaged records instead of hiding them — it is the debugging
/// view, not the recovery view. Never writes.
[[nodiscard]] Result<std::vector<WalDumpSegment>> DumpWal(
    const std::string& dir);

}  // namespace skycube

#endif  // SKYCUBE_STORAGE_WAL_H_
