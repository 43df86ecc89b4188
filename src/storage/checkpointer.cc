#include "storage/checkpointer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "core/serialization.h"
#include "dataset/dataset.h"

namespace skycube {

std::string CheckpointFileName(uint64_t lsn) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "checkpoint-%016llx.ckpt",
                static_cast<unsigned long long>(lsn));
  return buffer;
}

namespace {

std::string CheckpointName(uint64_t lsn) { return CheckpointFileName(lsn); }

std::string ChecksumHex(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
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

/// Serializes the checkpoint payload (everything the checksum covers).
std::string SerializeCheckpointPayload(uint64_t lsn, const Dataset& data,
                                       const SkylineGroupSet& groups,
                                       const std::vector<uint8_t>& live,
                                       const std::vector<uint64_t>& stamps) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "lsn " << lsn << "\n";
  os << "dims " << data.num_dims() << " rows " << data.num_objects() << "\n";
  os << "names";
  for (std::string name : data.dim_names()) {
    for (char& c : name) {
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
    }
    os << ' ' << name;
  }
  os << "\n";
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    for (int dim = 0; dim < data.num_dims(); ++dim) {
      os << (dim == 0 ? "" : " ") << data.Value(id, dim);
    }
    os << "\n";
  }
  std::vector<ObjectId> dead;
  for (ObjectId id = 0; id < live.size(); ++id) {
    if (!live[id]) dead.push_back(id);
  }
  os << "dead " << dead.size();
  for (ObjectId id : dead) os << ' ' << id;
  os << "\n";
  os << "stamps";
  for (ObjectId id = 0; id < data.num_objects(); ++id) {
    os << ' ' << (id < stamps.size() ? stamps[id] : 0);
  }
  os << "\n";
  os << SerializeCube(data.num_dims(), data.num_objects(), groups,
                      data.dim_names());
  return os.str();
}

}  // namespace

std::vector<uint64_t> ListCheckpoints(const std::string& dir) {
  std::vector<uint64_t> lsns;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long lsn = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%16llx.ckpt%n", &lsn,
                    &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      lsns.push_back(lsn);
    }
  }
  std::sort(lsns.begin(), lsns.end());
  return lsns;
}

Result<CheckpointData> LoadCheckpoint(const std::string& dir, uint64_t lsn) {
  const std::string path = dir + "/" + CheckpointName(lsn);
  std::string text;
  {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return Status::NotFound("cannot open: " + path);
    char buffer[1 << 16];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(file);
  }
  Result<CheckpointData> checkpoint = ParseCheckpoint(text);
  if (!checkpoint.ok()) return checkpoint.status();
  if (checkpoint.value().lsn != lsn) {
    return Status::InvalidArgument("checkpoint lsn does not match its name");
  }
  return checkpoint;
}

Result<CheckpointData> ParseCheckpoint(const std::string& text) {
  std::istringstream is(text);
  std::string word, version;
  is >> word >> version;
  if (word != "skycube-checkpoint" || (version != "v1" && version != "v2")) {
    return Status::InvalidArgument("bad checkpoint header");
  }
  const bool has_liveness = version == "v2";
  std::string k_checksum, digest;
  if (!(is >> k_checksum >> digest) || k_checksum != "checksum" ||
      digest.size() != 16) {
    return Status::Internal("corrupt checkpoint: missing checksum line");
  }
  const std::string marker = "checksum " + digest;
  const size_t marker_pos = text.find(marker);
  if (marker_pos == std::string::npos) {
    return Status::Internal("corrupt checkpoint: malformed checksum line");
  }
  const size_t payload_pos = text.find('\n', marker_pos);
  if (payload_pos == std::string::npos) {
    return Status::Internal("corrupt checkpoint: truncated after checksum");
  }
  const std::string_view payload =
      std::string_view(text).substr(payload_pos + 1);
  if (ChecksumHex(Fnv1a64(payload)) != digest) {
    return Status::Internal(
        "corrupt checkpoint: checksum mismatch (truncated or bit-flipped)");
  }

  CheckpointData checkpoint;
  std::string k_lsn, k_dims, k_rows, k_names;
  int dims = 0;
  size_t rows = 0;
  if (!(is >> k_lsn >> checkpoint.lsn) || k_lsn != "lsn") {
    return Status::InvalidArgument("bad checkpoint lsn line");
  }
  if (!(is >> k_dims >> dims >> k_rows >> rows) || k_dims != "dims" ||
      k_rows != "rows" || dims < 1 || dims > kMaxDims) {
    return Status::InvalidArgument("bad checkpoint metadata line");
  }
  std::vector<std::string> names(dims);
  if (!(is >> k_names) || k_names != "names") {
    return Status::InvalidArgument("bad checkpoint names line");
  }
  for (std::string& name : names) {
    if (!(is >> name)) {
      return Status::InvalidArgument("truncated checkpoint names line");
    }
  }
  Dataset data(dims, names);
  std::vector<double> row(dims);
  for (size_t r = 0; r < rows; ++r) {
    for (double& value : row) {
      if (!(is >> value)) {
        return Status::InvalidArgument("truncated checkpoint row " +
                                       std::to_string(r));
      }
    }
    if (!AllFinite(row)) {
      return Status::InvalidArgument("non-finite value in checkpoint row " +
                                     std::to_string(r));
    }
    data.AddRow(row);
  }
  // Sized off the rows actually parsed, not the declared count — by here
  // they are equal, but the allocation must never key off a wire integer.
  checkpoint.live.assign(data.num_objects(), 1);
  checkpoint.timestamps.assign(data.num_objects(), 0);
  if (has_liveness) {
    std::string k_dead, k_stamps;
    size_t num_dead = 0;
    if (!(is >> k_dead >> num_dead) || k_dead != "dead" || num_dead > rows) {
      return Status::InvalidArgument("bad checkpoint dead line");
    }
    for (size_t i = 0; i < num_dead; ++i) {
      ObjectId id = 0;
      if (!(is >> id) || id >= rows) {
        return Status::InvalidArgument("bad checkpoint dead id");
      }
      checkpoint.live[id] = 0;
    }
    if (!(is >> k_stamps) || k_stamps != "stamps") {
      return Status::InvalidArgument("bad checkpoint stamps line");
    }
    for (size_t i = 0; i < rows; ++i) {
      if (!(is >> checkpoint.timestamps[i])) {
        return Status::InvalidArgument("truncated checkpoint stamps line");
      }
    }
  }
  // The rest of the stream is the embedded cube file.
  std::string cube_text;
  {
    const std::streampos pos = is.tellg();
    if (pos == std::streampos(-1)) {
      return Status::InvalidArgument("checkpoint missing embedded cube");
    }
    cube_text = text.substr(static_cast<size_t>(pos));
    const size_t start = cube_text.find("skycube-cube");
    if (start == std::string::npos) {
      return Status::InvalidArgument("checkpoint missing embedded cube");
    }
    cube_text = cube_text.substr(start);
  }
  Result<SerializedCube> cube = DeserializeCube(cube_text);
  if (!cube.ok()) return cube.status();
  if (cube.value().num_dims != dims ||
      cube.value().num_objects != data.num_objects()) {
    return Status::InvalidArgument(
        "checkpoint cube shape disagrees with its dataset");
  }
  checkpoint.data = std::move(data);
  checkpoint.groups = std::move(cube.value().groups);
  return checkpoint;
}

Checkpointer::Checkpointer(std::string dir, size_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {}

Status Checkpointer::Write(uint64_t lsn, const Dataset& data,
                           const SkylineGroupSet& groups,
                           const std::vector<uint8_t>& live,
                           const std::vector<uint64_t>& timestamps) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return Status::Internal("cannot create checkpoint dir: " + dir_);

  const std::string payload =
      SerializeCheckpointPayload(lsn, data, groups, live, timestamps);
  const std::string text = "skycube-checkpoint v2\nchecksum " +
                           ChecksumHex(Fnv1a64(payload)) + "\n" + payload;
  const std::string final_path = dir_ + "/" + CheckpointName(lsn);
  const std::string tmp_path = final_path + ".tmp";

  // Write-temp + fsync + rename + dir fsync: the checkpoint becomes
  // visible atomically or not at all.
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create checkpoint temp: " + tmp_path);
  }
  const char* bytes = text.data();
  size_t remaining = text.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, bytes, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal("checkpoint write failed: " + tmp_path);
    }
    bytes += n;
    remaining -= static_cast<size_t>(n);
  }
  // Crash-test hook: die mid-write — the visible state must still be the
  // previous checkpoint set (the .tmp is ignored on recovery).
  if (SKYCUBE_FAULT_POINT("checkpoint.crash_mid_write")) std::_Exit(42);
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("checkpoint fsync failed: " + tmp_path);
  }
  ::close(fd);
  // Crash-test hook: die between fsync and rename — same invariant.
  if (SKYCUBE_FAULT_POINT("checkpoint.crash_before_rename")) std::_Exit(42);
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Internal("checkpoint rename failed: " + final_path);
  }
  if (Status sync = SyncDir(dir_); !sync.ok()) return sync;
  // Crash-test hook: die after the rename is durable but before retention
  // and WAL truncation — recovery must prefer the new checkpoint and
  // tolerate the stale WAL prefix / older checkpoints still existing.
  if (SKYCUBE_FAULT_POINT("checkpoint.crash_after_rename")) std::_Exit(42);
  ++checkpoints_written_;

  // Retention: keep the newest `keep_`, drop older ones and stray temps.
  std::vector<uint64_t> lsns = ListCheckpoints(dir_);
  while (lsns.size() > keep_) {
    std::filesystem::remove(dir_ + "/" + CheckpointName(lsns.front()), ec);
    lsns.erase(lsns.begin());
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.ends_with(".tmp") &&
        name != CheckpointName(lsn) + ".tmp") {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  if (Status sync = SyncDir(dir_); !sync.ok()) return sync;
  oldest_retained_lsn_ = lsns.empty() ? lsn : lsns.front();
  return Status::Ok();
}

}  // namespace skycube
