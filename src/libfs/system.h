// AerieSystem: single-process wiring of a complete Aerie deployment.
//
// Assembles the pieces exactly as Figure 2 arranges them: an emulated SCM
// region, the (kernel) SCM manager, one file-system volume, the trusted
// service (TFS + lock service) reachable over RPC, and a factory for
// untrusted clients (libFS instances). Clients may connect through the
// in-process transport (optionally charging a simulated RPC round-trip) or
// through real Unix-domain sockets, matching the paper's loopback RPC.
//
// The paper runs clients as separate processes; here each client is an
// independent LibFs instance (own clerk, cache, batch, session id) driven by
// its own thread — see DESIGN.md §4 for why this preserves the measured
// paths on the TFS side.
#ifndef AERIE_SRC_LIBFS_SYSTEM_H_
#define AERIE_SRC_LIBFS_SYSTEM_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/libfs/client.h"
#include "src/lock/lock_service.h"
#include "src/rpc/inproc.h"
#include "src/rpc/socket.h"
#include "src/scm/manager.h"
#include "src/scm/pmem.h"
#include "src/tfs/service.h"

namespace aerie {

class AerieSystem {
 public:
  struct Options {
    uint64_t region_bytes = 256ull << 20;
    // Non-empty: file-backed region (survives Create/destroy cycles for
    // crash-recovery testing).
    std::string region_path;
    // false: mount an existing region (runs recovery) instead of formatting.
    bool fresh = true;
    // Simulated RPC round-trip for in-process transports (0 = free calls).
    uint64_t rpc_delay_ns = 0;
    // Non-empty: also serve RPC on this Unix socket path.
    std::string uds_path;
    // Extra write latency per persisted cache line (paper §7.4 knob).
    uint64_t scm_write_ns = 0;
    LockService::Options lock;
    ScmManager::Options scm;
    // Applied only when formatting (fresh == true). Crash-simulation tests
    // shrink the redo log so enumeration touches fewer lines per image.
    Volume::Options volume;
  };

  static Result<std::unique_ptr<AerieSystem>> Create(const Options& options);
  ~AerieSystem();

  // A connected untrusted client: transport + libFS + lock session.
  class Client {
   public:
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    LibFs* fs() { return fs_.get(); }
    uint64_t id() const { return transport_->client_id(); }
    Transport* transport() { return transport_.get(); }

    // Crash-test hook: skip the clean teardown (sync, disconnect) so the
    // client "dies" with unshipped state, like a killed process.
    void AbandonForCrashTest() {
      system_ = nullptr;
      if (fs_) {
        fs_->AbandonForCrashTest();
      }
    }

   private:
    friend class AerieSystem;
    Client() = default;
    AerieSystem* system_ = nullptr;
    std::unique_ptr<Transport> transport_;
    std::unique_ptr<LibFs> fs_;
  };

  // Connects a new client over the in-process transport.
  Result<std::unique_ptr<Client>> NewClient() {
    return NewClient(LibFs::Options{});
  }
  Result<std::unique_ptr<Client>> NewClient(const LibFs::Options& options);
  // Connects over the Unix socket (requires Options::uds_path).
  Result<std::unique_ptr<Client>> NewUdsClient(const LibFs::Options& options);

  TrustedFsService* tfs() { return tfs_.get(); }
  LockService* lock_service() { return locks_.get(); }
  ScmRegion* scm_region() { return region_.get(); }
  ScmManager* scm_manager() { return manager_.get(); }
  Volume* volume() { return volume_.get(); }
  RpcDispatcher* dispatcher() { return &dispatcher_; }
  uint64_t partition_offset() const { return partition_offset_; }

 private:
  AerieSystem() = default;

  Result<std::unique_ptr<Client>> FinishClient(
      std::unique_ptr<Transport> transport, const LibFs::Options& options);

  Options options_;
  std::unique_ptr<ScmRegion> region_;
  std::unique_ptr<ScmManager> manager_;
  std::unique_ptr<Volume> volume_;
  std::unique_ptr<LockService> locks_;
  std::unique_ptr<TrustedFsService> tfs_;
  RpcDispatcher dispatcher_;
  std::unique_ptr<UdsServer> uds_server_;
  uint64_t partition_offset_ = 0;
  std::atomic<uint64_t> next_inproc_client_{1000};
};

}  // namespace aerie

#endif  // AERIE_SRC_LIBFS_SYSTEM_H_
