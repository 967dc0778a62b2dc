// Benchmark binary. Usage:
//   perfbench --workload <swj_pdjds|svc_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]
// Prints progress notes on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero when
// any correctness check fails (the line then reads "correct": false).

#include <malloc.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

const char* const kWorkloads[] = {"swj_pdjds", "svc_mixed"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <swj_pdjds|svc_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]\n";
  std::exit(2);
}

pb::Options parse(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--tiny") o.tiny = true;
    else usage("unknown argument " + a);
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Options opt = parse(argc, argv);
  // Keep freed memory in the process. With the allocator's defaults the
  // scratch memory of every solve comes back from the kernel as fresh pages
  // (on the 29,175-DOF Southwest-Japan mesh, ~6,000 page faults per solve),
  // and on a virtualized host the cost of a fault swings with the host's
  // load: it made per-solve times slower and far less steady. Every
  // per-operation allocation of the workloads stays below the 64 MiB
  // threshold.
  if (mallopt(M_MMAP_THRESHOLD, 64 << 20) != 1 || mallopt(M_TRIM_THRESHOLD, -1) != 1)
    pb::note("the allocator refused the settings; times will be less steady");
  pb::Result res;
  try {
    if (!opt.trace) {
      if (opt.workload == "swj_pdjds") pb::swj_run(opt, res);
      else pb::svc_run(opt, res);
    } else {
      // One traced run covers every layer: the named workload's stack for the
      // full time, the other workload's stack and the distributed stack for a
      // fixed shorter pass.
      pb::Trace tr;
      const double stream_gbs = pb::probe_stream(res);
      const bool swj = opt.workload == "swj_pdjds";
      pb::swj_trace(opt, swj ? opt.seconds : 2.0, swj, stream_gbs, tr, res);
      pb::dist2_trace(opt, 6.0, tr, res);
      pb::svc_trace(opt, swj ? 2.0 : opt.seconds, !swj, tr, res);
      if (!opt.trace_out.empty()) {
        tr.write_chrome(opt.trace_out);
        pb::note("wrote " + std::to_string(tr.spans().size()) + " spans to " + opt.trace_out);
      }
    }
  } catch (const std::exception& e) {
    res.fail(std::string("exception: ") + e.what());
  }
  res.print();
  if (!res.correct()) {
    pb::note("correctness checks failed (" + std::to_string(res.failed()) + " of " +
             std::to_string(res.attempted()) + " operations)");
    return 1;
  }
  return 0;
}
