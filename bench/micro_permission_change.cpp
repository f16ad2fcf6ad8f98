// Permission-change microbenchmark (paper §7.2.1, text):
//
//   "Changing protection takes 3.3us per page that has been referenced,
//    most of which is TLB shootdown time."
//
// Measures scm_mprotect_extent for extents of growing size, with all pages
// referenced (soft-faulted into a process context), both with the soft page
// table alone and with real mprotect() doing genuine page-table + TLB work.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/scm/manager.h"

int main() {
  using namespace aerie;
  using namespace aerie::bench;

  std::printf("# Permission change cost per referenced page\n");
  std::printf("# paper: 3.3us/page (TLB shootdown dominated)\n\n");

  for (const bool hard : {false, true}) {
    auto region = ScmRegion::CreateAnonymous(256ull << 20);
    BENCH_CHECK_OK(region);
    ScmManager::Options options;
    options.max_extents = 1 << 14;
    options.hard_protect = hard;
    auto mgr = ScmManager::Format(region->get(), options);
    BENCH_CHECK_OK(mgr);

    ProcessContext ctx({0});
    (*mgr)->RegisterContext(&ctx);

    std::printf("## %s\n", hard ? "hard (real mprotect per page)"
                                : "soft (page-table emulation only)");
    std::printf("%10s %14s %16s\n", "pages", "total(us)", "per-page(us)");
    for (uint64_t pages : {1ull, 16ull, 256ull, 4096ull}) {
      const uint64_t start = (*mgr)->data_start();
      const uint64_t len = pages * kScmPageSize;
      BENCH_CHECK_STATUS((*mgr)->CreateExtent(start, len, MakeAcl(0, 3)));
      // Reference every page so each has a (soft) PTE to shoot down.
      BENCH_CHECK_STATUS((*mgr)->TouchRange(&ctx, start, len, 1));

      Stopwatch sw;
      BENCH_CHECK_STATUS(
          (*mgr)->MprotectExtent(start, MakeAcl(0, kAclRightRead)));
      const double total_us = sw.ElapsedMicros();
      std::printf("%10llu %14.2f %16.3f\n",
                  static_cast<unsigned long long>(pages), total_us,
                  total_us / static_cast<double>(pages));
      // Restore and destroy for the next size.
      BENCH_CHECK_STATUS((*mgr)->MprotectExtent(start, MakeAcl(0, 3)));
      if (hard) {
        BENCH_CHECK_STATUS(region->get()->HardProtect(start, len, 3));
      }
      BENCH_CHECK_STATUS((*mgr)->DestroyExtent(start));
    }
    (*mgr)->UnregisterContext(&ctx);
    std::printf("\n");
  }

  PrintProfileTop();
  return 0;
}
