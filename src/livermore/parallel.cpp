#include "livermore/parallel.hpp"

#include <cmath>
#include <functional>
#include <numeric>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/inspector.hpp"
#include "core/linear_ir.hpp"
#include "core/plan.hpp"
#include "parallel/parallel_for.hpp"
#include "scan/linear_recurrence.hpp"
#include "scan/prefix_scan.hpp"
#include "scan/segmented_scan.hpp"

namespace ir::livermore {

using core::LinearIrLoop;
using core::OrdinaryIrOptions;
using core::OrdinaryIrSystem;
using core::SelfLinearIrLoop;

namespace {

double checksum(const std::vector<double>& v, std::size_t count) {
  double sum = 0.0;
  for (std::size_t i = 0; i < count && i < v.size(); ++i) sum += v[i];
  return sum;
}

/// A contiguous first-order chain cell[k+1] = mul[k]·cell[k] + add[k] as a
/// LinearIrLoop over `steps`+1 virtual cells; returns every chain value.
std::vector<double> solve_chain(std::vector<double> mul, std::vector<double> add,
                                double x0, const OrdinaryIrOptions& options) {
  const std::size_t steps = mul.size();
  LinearIrLoop loop;
  loop.system.cells = steps + 1;
  loop.system.f.resize(steps);
  loop.system.g.resize(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    loop.system.f[s] = s;
    loop.system.g[s] = s + 1;
  }
  loop.mul = std::move(mul);
  loop.add = std::move(add);
  std::vector<double> init(steps + 1, 0.0);
  init[0] = x0;
  return core::linear_ir_parallel(loop, std::move(init), options);
}

}  // namespace

double kernel03_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t n = ws.loop_n;
  std::vector<double> mul(n, 1.0), add(n);
  for (std::size_t k = 0; k < n; ++k) add[k] = ws.z[k] * ws.x[k];
  const auto chain = solve_chain(std::move(mul), std::move(add), 0.0, options);
  ws.q = chain[n];
  return ws.q;
}

double kernel05_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t n = ws.loop_n;
  // x[i] = z[i]*(y[i] - x[i-1]) = (-z[i])*x[i-1] + z[i]*y[i]
  LinearIrLoop loop;
  loop.system.cells = n;
  loop.system.f.resize(n - 1);
  loop.system.g.resize(n - 1);
  loop.mul.resize(n - 1);
  loop.add.resize(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    loop.system.f[i - 1] = i - 1;
    loop.system.g[i - 1] = i;
    loop.mul[i - 1] = -ws.z[i];
    loop.add[i - 1] = ws.z[i] * ws.y[i];
  }
  std::vector<double> x(ws.x.begin(), ws.x.begin() + static_cast<std::ptrdiff_t>(n));
  x = core::linear_ir_parallel(loop, std::move(x), options);
  std::copy(x.begin(), x.end(), ws.x.begin());
  return checksum(ws.x, n);
}

double kernel11_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t n = ws.loop_n;
  ws.x[0] = ws.y[0];
  LinearIrLoop loop;
  loop.system.cells = n;
  loop.system.f.resize(n - 1);
  loop.system.g.resize(n - 1);
  loop.mul.assign(n - 1, 1.0);
  loop.add.resize(n - 1);
  for (std::size_t k = 1; k < n; ++k) {
    loop.system.f[k - 1] = k - 1;
    loop.system.g[k - 1] = k;
    loop.add[k - 1] = ws.y[k];
  }
  std::vector<double> x(ws.x.begin(), ws.x.begin() + static_cast<std::ptrdiff_t>(n));
  x = core::linear_ir_parallel(loop, std::move(x), options);
  std::copy(x.begin(), x.end(), ws.x.begin());
  return checksum(ws.x, n);
}

double kernel11_scan(Workspace& ws, parallel::ThreadPool* pool) {
  const std::size_t n = ws.loop_n;
  std::vector<double> x(ws.y.begin(), ws.y.begin() + static_cast<std::ptrdiff_t>(n));
  scan::inclusive_scan_kogge_stone(algebra::AddMonoid<double>{}, x, pool);
  std::copy(x.begin(), x.end(), ws.x.begin());
  return checksum(ws.x, n);
}

double kernel19_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t n = ws.loop_n;
  // Both sweeps carry only the scalar stb5:
  //   b5[k] = sa[k] + stb5·sb[k];  stb5' = b5[k] - stb5 = sa[k] + (sb[k]-1)·stb5
  // Chain steps 0..n-1 are the forward sweep (k = s); steps n..2n-1 the
  // backward sweep (k = 2n-1-s).
  std::vector<double> mul(2 * n), add(2 * n);
  for (std::size_t s = 0; s < 2 * n; ++s) {
    const std::size_t k = s < n ? s : 2 * n - 1 - s;
    mul[s] = ws.sb[k] - 1.0;
    add[s] = ws.sa[k];
  }
  const double init = ws.q == 0.0 ? 0.1 : ws.q;
  const auto chain = solve_chain(std::move(mul), std::move(add), init, options);
  // The surviving b5[k] comes from the backward sweep at step s = 2n-1-k.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t s = 2 * n - 1 - k;
    ws.b5[k] = ws.sa[k] + chain[s] * ws.sb[k];
  }
  ws.q = chain[2 * n];
  return checksum(ws.b5, n);
}

double kernel23_fragment_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t kn = ws.loop_2d, jn = 7;
  SelfLinearIrLoop loop;
  loop.system.cells = ws.za.rows() * ws.za.cols();
  // Equations in the sequential order (j outer, k inner):
  //   za(k,j) := za(k,j)·1 + (dk·zz(k,j))·za(k-1,j) + dk·y[k]
  for (std::size_t j = 1; j < jn; ++j) {
    for (std::size_t k = 1; k < kn; ++k) {
      loop.system.f.push_back(ws.za.flat(k - 1, j));
      loop.system.g.push_back(ws.za.flat(k, j));
      loop.a.push_back(ws.dk * ws.zz.at(k, j));
      loop.b.push_back(ws.dk * ws.y[k]);
      loop.c.push_back(0.0);
      loop.d.push_back(1.0);
    }
  }
  ws.za.data() = core::self_linear_ir_parallel(loop, std::move(ws.za.data()), options);
  return std::accumulate(ws.za.data().begin(), ws.za.data().end(), 0.0);
}

double kernel23_fragment_segmented(Workspace& ws, parallel::ThreadPool* pool) {
  const std::size_t kn = ws.loop_2d, jn = 7;
  // Per-column affine chains:
  //   za(k,j) = (dk*zz(k,j)) * za(k-1,j) + (za0(k,j) + dk*y[k])
  // where za0 is the pre-loop value of za(k,j) (read only by its own
  // equation, g injective).  One scan element per (j, k) in column-major
  // order, one segment head per column.  AffineCompose short-circuits a zero
  // slope, as scan/linear_recurrence.hpp describes.
  std::vector<algebra::AffineMap> maps;
  std::vector<bool> heads;
  maps.reserve((jn - 1) * (kn - 1));
  heads.reserve(maps.capacity());
  for (std::size_t j = 1; j < jn; ++j) {
    for (std::size_t k = 1; k < kn; ++k) {
      maps.push_back(algebra::AffineMap{ws.dk * ws.zz.at(k, j),
                                        ws.za.at(k, j) + ws.dk * ws.y[k]});
      heads.push_back(k == 1);
    }
  }
  scan::segmented_inclusive_scan(algebra::AffineCompose{}, maps, heads, pool);
  double total = 0.0;
  std::size_t e = 0;
  for (std::size_t j = 1; j < jn; ++j) {
    const double x0 = ws.za.at(0, j);
    for (std::size_t k = 1; k < kn; ++k, ++e) {
      ws.za.at(k, j) = maps[e].apply(x0);
    }
  }
  for (const double v : ws.za.data()) total += v;
  return total;
}

double kernel13_parallel(Workspace& ws, parallel::ThreadPool* pool) {
  const std::size_t np = ws.p_k13.rows();

  // Inspector + executor, phase 1: the particle push is independent per
  // particle (each reads only read-only fields and its own row), so it runs
  // as a flat parallel_for; each particle reports its deposition cell.
  std::vector<std::size_t> deposit(np);
  auto push = [&](std::size_t ip) {
    auto i1 = static_cast<std::size_t>(ws.p_k13.at(ip, 0)) & 63u;
    auto j1 = static_cast<std::size_t>(ws.p_k13.at(ip, 1)) & 63u;
    ws.p_k13.at(ip, 2) += ws.b_k13.at(j1, i1);
    ws.p_k13.at(ip, 3) += ws.c_k13.at(j1, i1);
    ws.p_k13.at(ip, 0) += ws.p_k13.at(ip, 2);
    ws.p_k13.at(ip, 1) += ws.p_k13.at(ip, 3);
    auto i2 = static_cast<std::size_t>(std::fabs(ws.p_k13.at(ip, 0))) & 63u;
    auto j2 = static_cast<std::size_t>(std::fabs(ws.p_k13.at(ip, 1))) & 63u;
    ws.p_k13.at(ip, 0) += ws.y_k13[i2 & 127u];
    ws.p_k13.at(ip, 1) += ws.z_k13[j2 & 127u];
    i2 = (i2 + static_cast<std::size_t>(ws.e_k13[i2 & 127u])) & 63u;
    j2 = (j2 + static_cast<std::size_t>(ws.f_k13[j2 & 127u])) & 63u;
    deposit[ip] = ws.h_k13.flat(j2, i2);
  };
  if (pool != nullptr) {
    parallel::parallel_for(*pool, np, push);
  } else {
    for (std::size_t ip = 0; ip < np; ++ip) push(ip);
  }

  // Phase 2: the histogram h[cell] += 1 is a general IR with repeated writes
  // (non-distinct g): A[g(ip)] = op(A[one], A[g(ip)]), op = +.
  core::GeneralIrSystem sys;
  const std::size_t cells = ws.h_k13.rows() * ws.h_k13.cols();
  sys.cells = cells + 1;  // virtual cell `cells` holds the constant 1
  sys.f.assign(np, cells);
  sys.g = deposit;
  sys.h = deposit;
  std::vector<double> init = ws.h_k13.data();
  init.push_back(1.0);
  // The scatter pattern is data-dependent (it changes with the particle
  // state every call), so compile a one-shot CAP plan and run it directly.
  core::PlanOptions plan_options;
  plan_options.engine = core::EngineChoice::kGeneralCap;
  plan_options.pool = pool;
  plan_options.prune_dead = false;  // the paper's plain algorithm, as before
  const core::Plan plan = core::compile_plan(sys, plan_options);
  core::ExecOptions exec;
  exec.pool = pool;
  auto out = core::execute_plan(plan, algebra::AddMonoid<double>{}, std::move(init), exec);
  out.pop_back();
  ws.h_k13.data() = std::move(out);
  return std::accumulate(ws.h_k13.data().begin(), ws.h_k13.data().end(), 0.0);
}

double kernel21_parallel(Workspace& ws, const OrdinaryIrOptions& options) {
  const std::size_t rows = 25, inner = 25, cols = 13;
  // Virtual accumulator chain cells: q(i,j,k) for k = 0..inner, laid out
  // (i,j)-major so cell = (i*cols + j)*(inner+1) + k.
  LinearIrLoop loop;
  loop.system.cells = rows * cols * (inner + 1);
  auto cell = [&](std::size_t i, std::size_t j, std::size_t k) {
    return (i * cols + j) * (inner + 1) + k;
  };
  // Equations in the sequential order (k outer, then i, then j):
  //   q(i,j,k+1) = 1 * q(i,j,k) + vy(i,k)*cx(k,j)
  for (std::size_t k = 0; k < inner; ++k) {
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        loop.system.f.push_back(cell(i, j, k));
        loop.system.g.push_back(cell(i, j, k + 1));
        loop.mul.push_back(1.0);
        loop.add.push_back(ws.vy.at(i, k) * ws.cx.at(k, j));
      }
    }
  }
  std::vector<double> init(loop.system.cells, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) init[cell(i, j, 0)] = ws.px.at(i, j);
  }
  const auto out = core::linear_ir_parallel(loop, std::move(init), options);
  double total = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      ws.px.at(i, j) = out[cell(i, j, inner)];
      total += ws.px.at(i, j);
    }
  }
  return total;
}

double kernel24_parallel(Workspace& ws, parallel::ThreadPool* pool) {
  const std::size_t n = ws.loop_n;
  using Op = algebra::ArgMinMonoid<double>;
  std::vector<Op::Value> pairs(n);
  for (std::size_t k = 0; k < n; ++k) pairs[k] = Op::Value{ws.x[k], k};
  scan::inclusive_scan_kogge_stone(Op{}, pairs, pool);
  return static_cast<double>(pairs.back().index);
}

double kernel14_parallel(Workspace& ws, parallel::ThreadPool* pool) {
  const std::size_t n = ws.loop_n;
  const double flx = 0.001;

  auto for_each = [&](std::size_t count, const std::function<void(std::size_t)>& body) {
    if (pool != nullptr) {
      parallel::parallel_for(*pool, count, body);
    } else {
      for (std::size_t k = 0; k < count; ++k) body(k);
    }
  };

  // Phases 1-2 (grid locate, field gather / push): independent per particle.
  for_each(n, [&](std::size_t k) {
    const auto cell = static_cast<std::size_t>(ws.grd[k]);
    ws.ix[k] = static_cast<std::int64_t>(cell);
    ws.xx[k] = ws.grd[k] - static_cast<double>(cell);
  });
  for_each(n, [&](std::size_t k) {
    const auto i = static_cast<std::size_t>(ws.ix[k]);
    ws.v[k] += ws.ex[i] + ws.xx[k] * ws.dex[i];
    ws.xx[k] += ws.v[k] + flx;
    ws.ir[k] = static_cast<std::int64_t>(std::fabs(ws.xx[k])) % static_cast<std::int64_t>(n);
  });

  // Phase 3 (charge deposition): the inspector records the data-dependent
  // scatter; the addends live in per-equation virtual cells so the weighted
  // += becomes a pure binary-op GIR (non-distinct g, op = +).
  const std::size_t rh_cells = ws.rh.size();
  core::SystemRecorder recorder(rh_cells + 2 * n);
  std::vector<double> init = ws.rh;
  init.resize(rh_cells + 2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(ws.ir[k]);
    const double frac = ws.xx[k] - std::floor(ws.xx[k]);
    init[rh_cells + 2 * k] = 1.0 - frac;
    init[rh_cells + 2 * k + 1] = frac;
    recorder.record_self(rh_cells + 2 * k, i);
    recorder.record_self(rh_cells + 2 * k + 1, (i + 1) % n);
  }
  const auto sys = std::move(recorder).finish();
  // Data-dependent scatter, fresh every call: one-shot CAP plan.
  core::PlanOptions plan_options;
  plan_options.engine = core::EngineChoice::kGeneralCap;
  plan_options.pool = pool;
  plan_options.prune_dead = false;  // the paper's plain algorithm, as before
  const core::Plan plan = core::compile_plan(sys, plan_options);
  core::ExecOptions exec;
  exec.pool = pool;
  auto out = core::execute_plan(plan, algebra::AddMonoid<double>{}, std::move(init), exec);
  out.resize(rh_cells);
  ws.rh = std::move(out);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += ws.rh[k];
  return sum;
}

}  // namespace ir::livermore
