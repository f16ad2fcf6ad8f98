// The workloads (varmail, webserver and webproxy_flat, which BENCHMARK.json
// names, and fileserver_mix), their fileset builders, and the post-window
// correctness checks.
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench/harness/harness.h"
#include "src/tfs/fsck.h"

namespace perfbench {

using aerie::AerieSystem;
using aerie::ErrorCode;
using aerie::FlatFs;
using aerie::Pxfs;
using aerie::Rng;

const char* OpName(Op op) {
  switch (op) {
    case Op::kOpen:
      return "open";
    case Op::kRead:
      return "read";
    case Op::kWrite:
      return "write";
    case Op::kClose:
      return "close";
    case Op::kUnlink:
      return "unlink";
    case Op::kStat:
      return "stat";
    case Op::kFsync:
      return "fsync";
    case Op::kRename:
      return "rename";
    case Op::kPut:
      return "put";
    case Op::kGet:
      return "get";
    case Op::kErase:
      return "erase";
    case Op::kSync:
      return "sync";
    case Op::kCount:
      break;
  }
  return "?";
}

Pool::Pool(uint64_t seed) {
  Rng rng(seed ^ 0x706f6f6cULL);
  bytes_.resize(kBytes);
  for (uint64_t i = 0; i < kBytes; i += 8) {
    const uint64_t v = rng.Next();
    std::memcpy(&bytes_[i], &v, 8);
  }
}

Seg Pool::Slice(Rng* rng, uint64_t len) const {
  return Seg{static_cast<uint32_t>(rng->Uniform(kBytes - len)),
             static_cast<uint32_t>(len)};
}

std::string Pool::Expand(const std::vector<Seg>& segs) const {
  std::string out;
  for (const Seg& s : segs) {
    out.append(bytes_.data() + s.off, s.len);
  }
  return out;
}

bool SettingsFor(const std::string& workload, double scale, Settings* out) {
  Settings s;
  s.workload = workload;
  auto scaled = [scale](uint64_t n) {
    return std::max<uint64_t>(16, static_cast<uint64_t>(n * scale));
  };
  if (workload == "varmail") {
    s.region_bytes = 128ull << 20;
    s.nfiles = scaled(1000);
    s.mean_file_size = 16 << 10;
    s.append_size = 16 << 10;
    s.warm_iterations = scaled(500);
  } else if (workload == "webserver") {
    s.region_bytes = 1536ull << 20;
    s.nfiles = scaled(80000);
    s.mean_file_size = 4 << 10;
    s.dir_width = 20;
    s.append_size = 16 << 10;
    s.log_rotate_bytes = 256 << 10;
    s.warm_iterations = scaled(2000);
  } else if (workload == "fileserver_mix") {
    s.region_bytes = 768ull << 20;
    s.pxfs_clients = 2;
    s.flat_clients = 1;
    s.nfiles = scaled(500);
    s.mean_file_size = 128 << 10;
    s.append_size = 16 << 10;
    s.flat_keys = scaled(1000);
    s.flat_mean_size = 16 << 10;
    s.warm_iterations = scaled(100);
  } else if (workload == "webproxy_flat") {
    s.region_bytes = 256ull << 20;
    s.pxfs_clients = 0;
    s.flat_clients = 1;
    s.append_size = 16 << 10;
    s.flat_keys = scaled(1000);
    s.flat_mean_size = 16 << 10;
    s.warm_iterations = scaled(500);
  } else {
    return false;
  }
  *out = s;
  return true;
}

namespace {

enum class Kind { kVarmail, kWebserver, kFileserverMix, kWebproxyFlat };

struct Client {
  explicit Client(uint8_t id, uint64_t seed) : rec(id), rng(seed) {}
  std::unique_ptr<AerieSystem::Client> conn;
  std::unique_ptr<Pxfs> px;
  std::unique_ptr<FlatFs> flat;
  Recorder rec;
  Rng rng;
  Fileset set;
  std::vector<std::string> dirs;  // directories files are spread over
  std::string root;               // client directory or key prefix
  uint64_t fresh = 0;             // new-file counter
  uint64_t log_size = 0;          // webserver log / FlatFS log value
  std::string buf;                // read buffer
  uint64_t size_mismatches = 0;
  std::vector<std::string> problems;

  void Problem(std::string what) {
    if (problems.size() < 8) {
      problems.push_back(std::move(what));
    }
  }
};

// FileBench sizes are gamma-distributed around the mean; an exponential
// clamped to [1KB, 4*mean] keeps that shape deterministically.
uint64_t SampleSize(Rng* rng, uint64_t mean, uint64_t cap = ~0ull) {
  const double u = std::max(1e-9, rng->NextDouble());
  const auto v = static_cast<uint64_t>(-static_cast<double>(mean) * std::log(u));
  return std::clamp<uint64_t>(v, 1024, std::min<uint64_t>(4 * mean, cap));
}

// Populates every page of the region (writable) so page faults land in
// setup, not in the measured window, and RSS includes the whole region.
void PrefaultRegion(aerie::ScmRegion* region) {
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif
  if (::madvise(region->base(), region->size(), MADV_POPULATE_WRITE) == 0) {
    return;
  }
  const long page = ::sysconf(_SC_PAGESIZE);
  for (size_t off = 0; off < region->size(); off += page) {
    // An atomic add of zero faults the page in without changing a byte.
    __atomic_fetch_add(region->base() + off, 0, __ATOMIC_RELAXED);
  }
}

class StackBench final : public Bench {
 public:
  StackBench(const Settings& s, const Pool* pool, uint64_t seed,
             std::string dir)
      : s_(s), pool_(pool), seed_(seed), dir_(std::move(dir)) {
    kind_ = s.workload == "varmail"          ? Kind::kVarmail
            : s.workload == "webserver"      ? Kind::kWebserver
            : s.workload == "webproxy_flat" ? Kind::kWebproxyFlat
                                             : Kind::kFileserverMix;
  }

  ~StackBench() override { Teardown(); }

  Status Build() {
    AerieSystem::Options opts;
    opts.region_bytes = s_.region_bytes;
    opts.rpc_delay_ns = s_.rpc_delay_ns;
    opts.scm_write_ns = s_.scm_write_ns;
    auto sys = AerieSystem::Create(opts);
    if (!sys.ok()) {
      return sys.status();
    }
    sys_ = std::move(*sys);
    PrefaultRegion(sys_->scm_region());

    const int n = s_.pxfs_clients + s_.flat_clients;
    for (int i = 0; i < n; ++i) {
      auto c = std::make_unique<Client>(static_cast<uint8_t>(i),
                                        aerie::Mix64(seed_ + 101 * (i + 1)));
      auto conn = sys_->NewClient();
      if (!conn.ok()) {
        return conn.status();
      }
      c->conn = std::move(*conn);
      if (i < s_.pxfs_clients) {
        c->px = std::make_unique<Pxfs>(c->conn->fs());
        c->buf.resize(s_.io_size);
      } else {
        c->flat = std::make_unique<FlatFs>(c->conn->fs());
        c->buf.resize(c->flat->file_capacity());
      }
      clients_.push_back(std::move(c));
    }
    for (int i = 0; i < n; ++i) {
      Status st = clients_[i]->px ? BuildPxfs(*clients_[i], i)
                                  : BuildFlat(*clients_[i], i);
      if (!st.ok()) {
        return st;
      }
    }
    // Warm-up. Problems it finds stay on the client and fail the check.
    for (auto& c : clients_) {
      for (uint64_t k = 0; k < s_.warm_iterations; ++k) {
        IterateClient(*c);
      }
    }
    return aerie::OkStatus();
  }

  int clients() const override { return static_cast<int>(clients_.size()); }
  void Iterate(int c) override { IterateClient(*clients_[c]); }
  Recorder& recorder(int c) override { return clients_[c]->rec; }
  aerie::AerieSystem* system() override { return sys_.get(); }
  uint64_t fileset_bytes() const override {
    uint64_t b = 0;
    for (const auto& c : clients_) {
      b += c->set.Bytes();
    }
    return b;
  }
  uint64_t fileset_files() const override {
    uint64_t n = 0;
    for (const auto& c : clients_) {
      n += c->set.size();
    }
    return n;
  }

  void Crash() override;
  CheckReport Check(uint64_t seed) override;

 private:
  // Adds the clients' in-window size mismatches and problems to rep_.
  void TallyClients();
  // varmail: remounts the crash image with recovery and reads back every
  // file whose contents an Fsync acknowledged.
  void CheckRecovery(uint64_t seed);

  // --- Fileset construction (untimed; any failure aborts setup) ---------

  Status BuildPxfs(Client& c, int index) {
    Pxfs* px = c.px.get();
    if (kind_ == Kind::kVarmail) {
      c.root = "/mail";
    } else if (kind_ == Kind::kWebserver) {
      c.root = "/web";
    } else {
      c.root = "/fs" + std::to_string(index);
    }
    AERIE_RETURN_IF_ERROR(px->Mkdir(c.root));
    c.dirs = {c.root};
    if (s_.dir_width != 0) {
      // A directory tree of the profile's mean width (FileBench lays
      // filesets out hierarchically, which is what path resolution and the
      // name cache see).
      const uint64_t leaves = std::max<uint64_t>(1, s_.nfiles / s_.dir_width);
      while (c.dirs.size() < leaves) {
        const uint64_t target =
            std::min<uint64_t>(c.dirs.size() * s_.dir_width, leaves);
        std::vector<std::string> next;
        for (uint64_t i = 0; i < target; ++i) {
          next.push_back(c.dirs[i % c.dirs.size()] + "/d" + std::to_string(i));
          AERIE_RETURN_IF_ERROR(px->Mkdir(next.back()));
        }
        c.dirs = std::move(next);
      }
    }
    for (uint64_t f = 0; f < s_.nfiles; ++f) {
      AERIE_RETURN_IF_ERROR(CreateFile(
          c, NewPath(c), SampleSize(&c.rng, s_.mean_file_size), false));
    }
    AERIE_RETURN_IF_ERROR(px->SyncAll());
    MarkAllDurable(c);
    return aerie::OkStatus();
  }

  Status BuildFlat(Client& c, int index) {
    c.root = "wp" + std::to_string(index) + "/";
    for (uint64_t f = 0; f < s_.flat_keys; ++f) {
      AERIE_RETURN_IF_ERROR(PutNew(c));
    }
    AERIE_RETURN_IF_ERROR(c.flat->Put(c.root + "log", {}));
    return c.flat->Sync();
  }

  std::string NewPath(Client& c) {
    const uint64_t id = c.fresh++;
    return c.dirs[id % c.dirs.size()] + "/f" + std::to_string(id);
  }

  static void MarkAllDurable(Client& c) {
    for (size_t i = 0; i < c.set.size(); ++i) {
      FileModel& f = c.set.at(i);
      f.durable = f.segs;
      f.has_durable = f.known;
    }
  }

  // --- Calls with model upkeep ------------------------------------------
  //
  // Every call goes through the recorder, which counts failures; after a
  // failure the model is repaired (a file that is not found is dropped, a
  // file whose write failed stops being checked) so one lost create does
  // not turn into a stream of failures.

  // Creates `path` holding `size` bytes, optionally Fsync'ed before close.
  Status CreateFile(Client& c, const std::string& path, uint64_t size,
                    bool fsync) {
    int fd = -1;
    Status st = c.rec.Call(Op::kOpen, [&] {
      auto r = c.px->Open(path, aerie::kOpenCreate | aerie::kOpenWrite |
                                    aerie::kOpenTrunc);
      fd = r.ok() ? *r : -1;
      return r.status();
    });
    if (!st.ok()) {
      return st;
    }
    FileModel f;
    f.path = path;
    Status result = WriteChunks(c, fd, size, &f);
    if (result.ok() && fsync) {
      result = c.rec.Call(Op::kFsync, [&] { return c.px->Fsync(fd); });
      if (result.ok()) {
        f.durable = f.segs;
        f.has_durable = f.known;
      }
    }
    Status closed = c.rec.Call(Op::kClose, [&] { return c.px->Close(fd); });
    c.set.Add(std::move(f));
    return result.ok() ? closed : result;
  }

  // Writes `bytes` (in io_size chunks) at the fd's offset, extending `f`.
  Status WriteChunks(Client& c, int fd, uint64_t bytes, FileModel* f) {
    while (bytes > 0) {
      const Seg seg = pool_->Slice(&c.rng, std::min(bytes, s_.io_size));
      uint64_t wrote = 0;
      Status st = c.rec.Call(Op::kWrite, [&] {
        auto r = c.px->Write(
            fd, std::span<const char>(pool_->data() + seg.off, seg.len));
        wrote = r.ok() ? *r : 0;
        return r.status();
      });
      if (!st.ok() || wrote != seg.len) {
        f->known = false;
        f->has_durable = false;
        return st;
      }
      f->segs.push_back(seg);
      f->size += seg.len;
      f->has_durable = false;  // acknowledged contents no longer current
      bytes -= seg.len;
    }
    return aerie::OkStatus();
  }

  // Drops file `i` from the model after `st` said it does not exist.
  static bool DropIfMissing(Client& c, size_t i, const Status& st) {
    if (st.code() == ErrorCode::kNotFound) {
      c.set.Remove(i);
      return true;
    }
    return false;
  }

  // Opens live file `i`; optionally reads it whole; optionally appends
  // `append` bytes and Fsyncs; closes.
  void OpenIo(Client& c, size_t i, bool read, uint64_t append, bool fsync) {
    // PXFS positions an O_APPEND descriptor at the end of the file, so a
    // read-then-append opens read-write and appends at the offset the whole
    // read left behind.
    int flags = read ? aerie::kOpenRead : 0;
    if (append != 0) {
      flags |= aerie::kOpenWrite | (read ? 0 : aerie::kOpenAppend);
    }
    int fd = -1;
    Status st = c.rec.Call(Op::kOpen, [&] {
      auto r = c.px->Open(c.set.at(i).path, flags);
      fd = r.ok() ? *r : -1;
      return r.status();
    });
    if (!st.ok()) {
      DropIfMissing(c, i, st);
      return;
    }
    FileModel& f = c.set.at(i);
    if (read) {
      uint64_t total = 0;
      for (;;) {
        uint64_t n = 0;
        st = c.rec.Call(Op::kRead, [&] {
          auto r = c.px->Read(fd, std::span<char>(c.buf.data(), c.buf.size()));
          n = r.ok() ? *r : 0;
          return r.status();
        });
        total += n;
        c.rec.AddBytesRead(n);
        if (!st.ok() || n < c.buf.size()) {
          break;
        }
      }
      if (st.ok() && f.known && total != f.size) {
        ++c.size_mismatches;
        c.Problem("read " + f.path + ": " + std::to_string(total) +
                  " bytes, expected " + std::to_string(f.size));
      }
    }
    if (st.ok() && append != 0) {
      st = WriteChunks(c, fd, append, &f);
      if (st.ok() && fsync) {
        st = c.rec.Call(Op::kFsync, [&] { return c.px->Fsync(fd); });
        if (st.ok()) {
          f.durable = f.segs;
          f.has_durable = f.known;
        }
      }
    }
    c.rec.Call(Op::kClose, [&] { return c.px->Close(fd); });
  }

  void UnlinkRandom(Client& c) {
    if (c.set.empty()) {
      return;
    }
    const size_t i = c.set.Pick(&c.rng);
    Status st =
        c.rec.Call(Op::kUnlink, [&] { return c.px->Unlink(c.set.at(i).path); });
    if (st.ok()) {
      c.set.Remove(i);
    } else {
      DropIfMissing(c, i, st);
    }
  }

  void StatRandom(Client& c) {
    if (c.set.empty()) {
      return;
    }
    const size_t i = c.set.Pick(&c.rng);
    uint64_t size = 0;
    Status st = c.rec.Call(Op::kStat, [&] {
      auto r = c.px->Stat(c.set.at(i).path);
      size = r.ok() ? r->size : 0;
      return r.status();
    });
    if (DropIfMissing(c, i, st)) {
      return;
    }
    const FileModel& f = c.set.at(i);
    if (st.ok() && f.known && size != f.size) {
      ++c.size_mismatches;
      c.Problem("stat " + f.path + ": size " + std::to_string(size) +
                ", expected " + std::to_string(f.size));
    }
  }

  void ReadRandom(Client& c, uint64_t append, bool fsync) {
    if (!c.set.empty()) {
      OpenIo(c, c.set.Pick(&c.rng), /*read=*/true, append, fsync);
    }
  }

  // Webserver log: a 16 KB append per iteration; once the log reaches the
  // rotation size it is Fsync'ed, closed and renamed over the previous
  // rotated log, whose space the rename frees.
  void LogAppend(Client& c) {
    const std::string path = c.root + "/log";
    int fd = -1;
    Status st = c.rec.Call(Op::kOpen, [&] {
      auto r = c.px->Open(path, aerie::kOpenCreate | aerie::kOpenWrite |
                                    aerie::kOpenAppend);
      fd = r.ok() ? *r : -1;
      return r.status();
    });
    if (!st.ok()) {
      return;
    }
    FileModel log;
    st = WriteChunks(c, fd, s_.append_size, &log);
    c.log_size += log.size;
    const bool rotate = st.ok() && c.log_size >= s_.log_rotate_bytes;
    if (rotate) {
      st = c.rec.Call(Op::kFsync, [&] { return c.px->Fsync(fd); });
    }
    c.rec.Call(Op::kClose, [&] { return c.px->Close(fd); });
    if (rotate && st.ok()) {
      st = c.rec.Call(Op::kRename,
                      [&] { return c.px->Rename(path, path + ".1"); });
      if (st.ok()) {
        c.log_size = 0;
      }
    }
  }

  // --- FlatFS (Webproxy as put/get/erase) --------------------------------

  Status PutNew(Client& c) {
    const uint64_t cap = c.flat->file_capacity();
    const Seg seg =
        pool_->Slice(&c.rng, SampleSize(&c.rng, s_.flat_mean_size, cap));
    FileModel f;
    f.path = c.root + "k" + std::to_string(c.fresh++);
    Status st = c.rec.Call(Op::kPut, [&] {
      return c.flat->Put(f.path,
                         std::span<const char>(pool_->data() + seg.off, seg.len));
    });
    if (st.ok()) {
      f.segs = {seg};
      f.size = seg.len;
      c.set.Add(std::move(f));
    }
    return st;
  }

  void IterateFlat(Client& c) {
    // erase + put + 5x get + log append as get/modify/put (paper §7.3.2).
    // webproxy_flat makes each new object durable with a Sync.
    if (!c.set.empty()) {
      const size_t i = c.set.Pick(&c.rng);
      Status st = c.rec.Call(Op::kErase,
                             [&] { return c.flat->Erase(c.set.at(i).path); });
      if (st.ok() || st.code() == ErrorCode::kNotFound) {
        c.set.Remove(i);
      }
    }
    if (PutNew(c).ok() && kind_ == Kind::kWebproxyFlat) {
      c.rec.Call(Op::kSync, [&] { return c.flat->Sync(); });
    }
    for (int k = 0; k < 5 && !c.set.empty(); ++k) {
      const size_t i = c.set.Pick(&c.rng);
      uint64_t n = 0;
      Status st = c.rec.Call(Op::kGet, [&] {
        auto r = c.flat->Get(c.set.at(i).path,
                             std::span<char>(c.buf.data(), c.buf.size()));
        n = r.ok() ? *r : 0;
        return r.status();
      });
      c.rec.AddBytesRead(n);
      if (DropIfMissing(c, i, st)) {
        continue;
      }
      if (st.ok() && n != c.set.at(i).size) {
        ++c.size_mismatches;
        c.Problem("get " + c.set.at(i).path + ": " + std::to_string(n) +
                  " bytes, expected " + std::to_string(c.set.at(i).size));
      }
    }
    const std::string log = c.root + "log";
    uint64_t n = 0;
    Status st = c.rec.Call(Op::kGet, [&] {
      auto r = c.flat->Get(log, std::span<char>(c.buf.data(), c.buf.size()));
      n = r.ok() ? *r : 0;
      return r.status();
    });
    c.rec.AddBytesRead(n);
    if (!st.ok()) {
      return;
    }
    if (n != c.log_size) {
      ++c.size_mismatches;
      c.Problem("get " + log + ": " + std::to_string(n) +
                " bytes, expected " + std::to_string(c.log_size));
    }
    const uint64_t add = s_.append_size;
    if (n + add > c.buf.size()) {
      n = 0;  // the log value is full: rotate it
    }
    const Seg seg = pool_->Slice(&c.rng, add);
    std::memcpy(c.buf.data() + n, pool_->data() + seg.off, seg.len);
    st = c.rec.Call(Op::kPut, [&] {
      return c.flat->Put(log, std::span<const char>(c.buf.data(), n + add));
    });
    if (st.ok()) {
      c.log_size = n + add;
    }
  }

  // --- Iterations ---------------------------------------------------------

  void IterateClient(Client& c) {
    if (c.flat) {
      IterateFlat(c);
      return;
    }
    switch (kind_) {
      case Kind::kVarmail:
        // delete; create + append + fsync + close;
        // open + read whole + append + fsync + close; open + read + close.
        UnlinkRandom(c);
        (void)CreateFile(c, NewPath(c), s_.append_size,
                         /*fsync=*/true);
        ReadRandom(c, s_.append_size, /*fsync=*/true);
        ReadRandom(c, 0, false);
        break;
      case Kind::kWebserver:
        for (int k = 0; k < 10; ++k) {
          ReadRandom(c, 0, false);
        }
        LogAppend(c);
        break;
      case Kind::kFileserverMix:
        // Fileserver: create + write whole file + fsync + close; append;
        // read whole file; delete; stat.
        (void)CreateFile(c, NewPath(c), SampleSize(&c.rng, s_.mean_file_size),
                         /*fsync=*/true);
        if (!c.set.empty()) {
          OpenIo(c, c.set.Pick(&c.rng), /*read=*/false,
                 s_.append_size, false);
        }
        ReadRandom(c, 0, false);
        UnlinkRandom(c);
        StatRandom(c);
        break;
      case Kind::kWebproxyFlat:
        break;  // FlatFS clients only; handled above
    }
  }

  // --- Checks -------------------------------------------------------------

  // Reads `f` whole through `c` and compares it with the model. Returns
  // false (with a problem noted) on any difference.
  bool ReadBack(Client& c, const std::string& path,
                const std::vector<Seg>& segs, std::vector<std::string>* out,
                bool* missing) {
    const std::string want = pool_->Expand(segs);
    std::string got;
    Status st;
    if (c.flat) {
      auto r = c.flat->Get(path);
      st = r.status();
      if (r.ok()) {
        got = std::move(*r);
      }
    } else {
      auto fd = c.px->Open(path, aerie::kOpenRead);
      st = fd.status();
      if (fd.ok()) {
        for (;;) {
          auto r = c.px->Read(*fd, std::span<char>(c.buf.data(), c.buf.size()));
          if (!r.ok()) {
            st = r.status();
            break;
          }
          got.append(c.buf.data(), *r);
          if (*r < c.buf.size()) {
            break;
          }
        }
        (void)c.px->Close(*fd);
      }
    }
    if (missing != nullptr) {
      *missing = st.code() == ErrorCode::kNotFound;
    }
    const uint64_t want_sum = aerie::HashBytes(want.data(), want.size());
    const uint64_t got_sum = aerie::HashBytes(got.data(), got.size());
    if (st.ok() && want_sum == got_sum && want.size() == got.size()) {
      return true;
    }
    if (out->size() < 8) {
      out->push_back("read-back " + path + ": " +
                     (st.ok() ? "checksum " + std::to_string(got_sum) +
                                    " (" + std::to_string(got.size()) +
                                    " bytes), expected " +
                                    std::to_string(want_sum) + " (" +
                                    std::to_string(want.size()) + " bytes)"
                              : st.ToString()));
    }
    return false;
  }

  void Teardown() {
    for (auto& c : clients_) {
      c->px.reset();
      c->flat.reset();
      c->conn.reset();
    }
    clients_.clear();
    sys_.reset();
  }

  Settings s_;
  const Pool* pool_;
  uint64_t seed_;
  std::string dir_;
  Kind kind_;
  std::unique_ptr<AerieSystem> sys_;
  std::vector<std::unique_ptr<Client>> clients_;
  CheckReport rep_;
  struct Durable {
    std::string path;
    std::vector<Seg> segs;
  };
  std::vector<Durable> durable_;  // Fsync-acknowledged files at the crash
  std::string crash_image_;       // set by Crash()
  Status crash_status_;
};

// Writes the region's bytes to `path` (sparse: all-zero pages are holes).
Status SnapshotRegion(const aerie::ScmRegion* region, const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kIoError, "open " + path);
  }
  Status st;
  if (::ftruncate(fd, static_cast<off_t>(region->size())) != 0) {
    st = Status(ErrorCode::kIoError, "ftruncate " + path);
  }
  static const char kZero[aerie::kScmPageSize] = {};
  for (size_t off = 0; st.ok() && off < region->size();
       off += aerie::kScmPageSize) {
    const char* page = region->base() + off;
    if (std::memcmp(page, kZero, aerie::kScmPageSize) == 0) {
      continue;
    }
    if (::pwrite(fd, page, aerie::kScmPageSize, static_cast<off_t>(off)) !=
        static_cast<ssize_t>(aerie::kScmPageSize)) {
      st = Status(ErrorCode::kIoError, "pwrite " + path);
    }
  }
  ::close(fd);
  return st;
}

void StackBench::TallyClients() {
  for (auto& c : clients_) {
    rep_.size_mismatches += c->size_mismatches;
    for (const std::string& p : c->problems) {
      if (rep_.problems.size() < 8) {
        rep_.problems.push_back(p);
      }
    }
  }
}

void StackBench::Crash() {
  if (kind_ != Kind::kVarmail) {
    return;
  }
  TallyClients();
  for (auto& c : clients_) {
    for (const FileModel& f : c->set.files()) {
      if (f.has_durable) {
        durable_.push_back({f.path, f.durable});
      }
    }
    c->conn->AbandonForCrashTest();
    c->px.reset();
    c->conn.reset();  // the Client keeps its recorder for the span output
  }
  crash_image_ = dir_ + "/varmail.region";
  crash_status_ = SnapshotRegion(sys_->scm_region(), crash_image_);
  sys_.reset();
}

CheckReport StackBench::Check(uint64_t seed) {
  if (!crash_image_.empty()) {
    CheckRecovery(seed);
    return rep_;
  }
  TallyClients();
  // Read back a sample of what each client wrote.
  Rng rng(seed ^ 0x636865636bULL);
  constexpr uint64_t kSamplePerClient = 200;
  for (auto& c : clients_) {
    std::vector<size_t> known;
    for (size_t i = 0; i < c->set.size(); ++i) {
      if (c->set.at(i).known) {
        known.push_back(i);
      }
    }
    for (uint64_t k = 0; k < kSamplePerClient && !known.empty(); ++k) {
      const size_t j = rng.Uniform(known.size());
      const FileModel& f = c->set.at(known[j]);
      known[j] = known.back();
      known.pop_back();
      ++rep_.sampled;
      if (!ReadBack(*c, f.path, f.segs, &rep_.problems, nullptr)) {
        ++rep_.mismatches;
      }
    }
  }
  // Clean shutdown, then fsck the volume.
  for (auto& c : clients_) {
    Status st = c->px ? c->px->SyncAll() : c->flat->Sync();
    if (!st.ok()) {
      ++rep_.sync_failures;
      rep_.problems.push_back("final sync: " + st.ToString());
    }
    c->px.reset();
    c->flat.reset();
    c->conn.reset();
  }
  auto fsck = aerie::RunFsck(sys_->volume());
  rep_.fsck_ok = fsck.ok() && fsck->ok();
  rep_.fsck_summary = fsck.ok() ? fsck->Summary() : fsck.status().ToString();
  Teardown();
  return rep_;
}

void StackBench::CheckRecovery(uint64_t seed) {
  rep_.recovery_run = true;
  Status st = crash_status_;
  if (st.ok()) {
    AerieSystem::Options opts;
    opts.region_bytes = s_.region_bytes;
    opts.region_path = crash_image_;
    opts.fresh = false;
    opts.rpc_delay_ns = s_.rpc_delay_ns;
    auto sys = AerieSystem::Create(opts);
    st = sys.status();
    if (sys.ok()) {
      sys_ = std::move(*sys);
      auto c = std::make_unique<Client>(0, seed);
      auto conn = sys_->NewClient();
      st = conn.status();
      if (conn.ok()) {
        c->conn = std::move(*conn);
        c->px = std::make_unique<Pxfs>(c->conn->fs());
        c->buf.resize(s_.io_size);
        rep_.recovery_ok = true;
        for (const Durable& d : durable_) {
          ++rep_.recovery_checked;
          bool missing = false;
          if (!ReadBack(*c, d.path, d.segs, &rep_.problems, &missing)) {
            ++(missing ? rep_.recovery_missing : rep_.recovery_mismatches);
          }
        }
        c->px.reset();
        c->conn.reset();
      }
      // fsck the recovered volume after the client's clean shutdown.
      auto fsck = aerie::RunFsck(sys_->volume());
      rep_.fsck_ok = fsck.ok() && fsck->ok();
      rep_.fsck_summary =
          fsck.ok() ? fsck->Summary() : fsck.status().ToString();
      Teardown();
    }
  }
  if (!st.ok()) {
    rep_.problems.push_back("recovery: " + st.ToString());
  }
  ::unlink(crash_image_.c_str());
}

}  // namespace

aerie::Result<std::unique_ptr<Bench>> Bench::Create(const Settings& s,
                                                    const Pool* pool,
                                                    uint64_t seed,
                                                    const std::string& dir) {
  auto bench = std::make_unique<StackBench>(s, pool, seed, dir);
  AERIE_RETURN_IF_ERROR(bench->Build());
  return std::unique_ptr<Bench>(std::move(bench));
}

}  // namespace perfbench
