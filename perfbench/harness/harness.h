// End-to-end benchmark harness for the Aerie stack (perfbench).
//
// One process builds its own AerieSystem and fileset, drives a named
// FileBench-style workload as closed loops (one thread per client, each
// thread issues its next call only when the previous one returned), and
// records every call it makes into the PXFS / FlatFS public APIs as a span
// (start, duration, op, client, ok). Nothing inside the system is
// instrumented for this: the layer view comes from before/after deltas of
// the program's own obs registry.
#ifndef AERIE_PERFBENCH_HARNESS_HARNESS_H_
#define AERIE_PERFBENCH_HARNESS_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/common/status.h"
#include "src/flatfs/flatfs.h"
#include "src/libfs/system.h"
#include "src/pxfs/pxfs.h"

namespace perfbench {

using aerie::Status;

// Every public-API call the workloads make.
enum class Op : uint8_t {
  kOpen,
  kRead,
  kWrite,
  kClose,
  kUnlink,
  kStat,
  kFsync,
  kRename,
  kPut,
  kGet,
  kErase,
  kSync,  // FlatFS Sync: its durability call
  kCount,
};
const char* OpName(Op op);

// One recorded call; written to disk verbatim (little-endian, 16 bytes).
struct Span {
  uint64_t start_ns;  // relative to the window start
  uint32_t dur_ns;
  uint8_t op;
  uint8_t client;
  uint8_t ok;
  uint8_t pad;
};
static_assert(sizeof(Span) == 16);

// Per-client call recorder. Recording is off during setup and warm-up.
class Recorder {
 public:
  explicit Recorder(uint8_t client) : client_(client) {}

  void Start(uint64_t origin_ns) {
    origin_ns_ = origin_ns;
    spans_.clear();
    bytes_read_ = 0;
    recording_ = true;
  }
  void Stop() { recording_ = false; }

  template <typename Fn>
  Status Call(Op op, Fn&& fn) {
    const uint64_t t0 = aerie::NowNanos();
    Status st = fn();
    const uint64_t t1 = aerie::NowNanos();
    if (recording_) {
      const uint64_t dur = t1 - t0;
      spans_.push_back(Span{t0 - origin_ns_,
                            static_cast<uint32_t>(dur > UINT32_MAX ? UINT32_MAX
                                                                   : dur),
                            static_cast<uint8_t>(op), client_,
                            static_cast<uint8_t>(st.ok() ? 1 : 0), 0});
    }
    if (!st.ok() && errors_.size() < 8) {
      errors_.push_back(std::string(OpName(op)) + ": " + st.ToString());
    }
    return st;
  }

  void AddBytesRead(uint64_t n) {
    if (recording_) {
      bytes_read_ += n;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t bytes_read() const { return bytes_read_; }
  const std::vector<std::string>& errors() const { return errors_; }
  uint64_t sample_bytes() const { return spans_.capacity() * sizeof(Span); }

 private:
  uint8_t client_;
  bool recording_ = false;
  uint64_t origin_ns_ = 0;
  uint64_t bytes_read_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> errors_;  // first few failures, for the log
};

// File contents are slices of one seeded random pool, so the expected bytes
// of any file are a short list of (offset, length) pairs.
struct Seg {
  uint32_t off;
  uint32_t len;
};

class Pool {
 public:
  static constexpr uint64_t kBytes = 4ull << 20;
  explicit Pool(uint64_t seed);
  const char* data() const { return bytes_.data(); }
  // A slice of `len` bytes (len <= kBytes / 2) at a random offset.
  Seg Slice(aerie::Rng* rng, uint64_t len) const;
  std::string Expand(const std::vector<Seg>& segs) const;

 private:
  std::string bytes_;
};

// The workload's model of one file (or FlatFS key).
struct FileModel {
  std::string path;
  std::vector<Seg> segs;  // current contents
  uint64_t size = 0;
  bool known = true;  // false after a failed write: contents unknown
  // Contents acknowledged by a successful Fsync (varmail recovery check).
  std::vector<Seg> durable;
  bool has_durable = false;
};

// Live files with O(1) random pick and removal.
class Fileset {
 public:
  size_t size() const { return files_.size(); }
  bool empty() const { return files_.empty(); }
  FileModel& at(size_t i) { return files_[i]; }
  const std::vector<FileModel>& files() const { return files_; }
  size_t Pick(aerie::Rng* rng) const { return rng->Uniform(files_.size()); }
  void Add(FileModel f) { files_.push_back(std::move(f)); }
  void Remove(size_t i) {
    files_[i] = std::move(files_.back());
    files_.pop_back();
  }
  uint64_t Bytes() const {
    uint64_t b = 0;
    for (const FileModel& f : files_) {
      b += f.size;
    }
    return b;
  }

 private:
  std::vector<FileModel> files_;
};

// The named workloads and their fixed parameters.
struct Settings {
  std::string workload;
  uint64_t region_bytes = 0;
  uint64_t nfiles = 0;           // per PXFS client (or the shared fileset)
  uint64_t mean_file_size = 0;
  uint64_t dir_width = 0;        // 0: one flat directory per client
  uint64_t append_size = 0;      // every append (the profiles use 16 KB)
  uint64_t io_size = 1 << 20;    // largest single read/write
  uint64_t log_rotate_bytes = 0; // webserver log rotation threshold
  int pxfs_clients = 1;
  int flat_clients = 0;
  uint64_t flat_keys = 0;
  uint64_t flat_mean_size = 0;
  uint64_t warm_iterations = 0;  // per client, part of setup
  uint64_t rpc_delay_ns = 10000; // paper's modelled loopback round trip
  uint64_t scm_write_ns = 0;     // no added SCM write latency
};

// Returns false for an unknown workload name. `scale` shrinks filesets for
// the harness's own smoke tests (1.0 = the benchmark).
bool SettingsFor(const std::string& workload, double scale, Settings* out);

// Results of the post-window correctness checks.
struct CheckReport {
  uint64_t sampled = 0;
  uint64_t mismatches = 0;
  uint64_t size_mismatches = 0;  // in-window reads/stats of a wrong size
  uint64_t sync_failures = 0;    // final SyncAll / Sync before shutdown
  bool fsck_ok = false;  // varmail: of the recovered volume
  std::string fsck_summary;
  bool recovery_run = false;
  bool recovery_ok = false;
  uint64_t recovery_checked = 0;
  uint64_t recovery_missing = 0;
  uint64_t recovery_mismatches = 0;
  std::vector<std::string> problems;  // first few, human-readable
  bool ok() const {
    return mismatches == 0 && size_mismatches == 0 && sync_failures == 0 &&
           fsck_ok &&
           (!recovery_run || (recovery_ok && recovery_missing == 0 &&
                              recovery_mismatches == 0));
  }
};

// One built system + fileset + clients, ready to run.
class Bench {
 public:
  virtual ~Bench() = default;
  // Builds the system, prefaults the region, builds the fileset and runs
  // the warm-up iterations.
  static aerie::Result<std::unique_ptr<Bench>> Create(const Settings& s,
                                                      const Pool* pool,
                                                      uint64_t seed,
                                                      const std::string& dir);

  virtual int clients() const = 0;
  // One closed-loop iteration of client `c`.
  virtual void Iterate(int c) = 0;
  virtual Recorder& recorder(int c) = 0;
  virtual uint64_t fileset_bytes() const = 0;
  virtual uint64_t fileset_files() const = 0;
  virtual aerie::AerieSystem* system() = 0;
  // varmail: crashes right after the window — abandons the clients
  // without a final sync and snapshots the region — before the background
  // flusher can ship what only an Fsync should have made durable. No-op for
  // the other workloads.
  virtual void Crash() = 0;
  // Read-back sample and fsck, or for varmail recovery of the crash image.
  // Consumes the clients; the Bench is unusable afterwards.
  virtual CheckReport Check(uint64_t seed) = 0;
};

}  // namespace perfbench

#endif  // AERIE_PERFBENCH_HARNESS_HARNESS_H_
