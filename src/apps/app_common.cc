#include "apps/app_common.h"

#include "common/check.h"

namespace dsm::apps {

AppRun Execute(Application& app, RuntimeConfig cfg) {
  cfg.heap_bytes = app.heap_bytes();
  // The apps size their fixed scratch slack (Reducer slots, shared
  // scalars) for the paper's native 8 processors, and the Reducer is the
  // only allocation that grows with the cluster — one page-padded slot
  // per processor.  Charge the excess here so scaled clusters (--procs
  // past 8) don't exhaust the heap; every run at <= 8 processors keeps
  // its exact heap size, unit count, and modelled state.
  if (cfg.num_procs > 8) {
    cfg.heap_bytes +=
        static_cast<std::size_t>(cfg.num_procs - 8) * kBasePageBytes;
  }
  // Round the heap up to a whole number of consistency units.
  const std::size_t unit = cfg.unit_bytes();
  cfg.heap_bytes = (cfg.heap_bytes + unit - 1) / unit * unit;

  Runtime rt(cfg);
  app.Setup(rt);
  rt.Run([&](Proc& p) { app.Body(p); });
  return {rt.CollectStats(), app.result()};
}

AppRun ExecuteSequential(Application& app, RuntimeConfig cfg) {
  cfg.num_procs = 1;
  cfg.backend = BackendKind::kReference;  // one processor runs no protocol
  return Execute(app, cfg);
}

void Reducer::Setup(Runtime& rt, const char* name) {
  nprocs_ = rt.config().num_procs;
  slots_ = rt.AllocUnitAligned<double>(kStrideDoubles * nprocs_, name);
}

void Reducer::Contribute(Proc& p, double value) {
  p.Write(slots_, static_cast<std::size_t>(p.id()) * kStrideDoubles, value);
}

double Reducer::Sum(Proc& p) const {
  double total = 0.0;
  for (int q = 0; q < nprocs_; ++q) {
    total += p.Read(slots_, static_cast<std::size_t>(q) * kStrideDoubles);
  }
  return total;
}

Range BlockRange(std::size_t n, int nprocs, int p) {
  DSM_CHECK_GE(p, 0);
  DSM_CHECK_LT(p, nprocs);
  const std::size_t base = n / nprocs;
  const std::size_t extra = n % nprocs;
  const std::size_t up = static_cast<std::size_t>(p);
  const std::size_t begin = up * base + std::min(up, extra);
  return {begin, begin + base + (up < extra ? 1 : 0)};
}

}  // namespace dsm::apps
