// EX-L23 — the paper's Section-3 worked example: Livermore loop 23's
// fragment parallelized through the Möbius transformation.
//
// Reports, for growing problem sizes: sequential wall time, Möbius-IR wall
// time (threaded), max element error (reassociation only), and the
// pointer-jumping round count of the fragment's schedule — the paper's
// O(log n) claim made measurable.  The Möbius route itself routes these
// column chains to the O(n) scan fold, so its timing is that route's.
#include <cmath>
#include <cstdio>

#include "core/linear_ir.hpp"
#include "core/plan.hpp"
#include "livermore/kernels.hpp"
#include "livermore/parallel.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main() {
  using namespace ir;

  std::printf("EX-L23: loop 23 fragment via the Moebius route\n");
  std::printf("X[k,j] := X[k,j] + 0.175*(Y[k] + X[k-1,j]*Z[k,j])\n\n");

  parallel::ThreadPool pool(parallel::ThreadPool::default_threads());

  support::TextTable table;
  table.set_header(
      {"rows", "seq ms", "IR ms", "segscan ms", "rounds", "max err", "match"});

  for (std::size_t scale : {1u, 4u, 16u, 64u}) {
    auto seq = livermore::Workspace::standard(1997);
    auto par = livermore::Workspace::standard(1997);
    // Grow the grid by replicating rows.
    const std::size_t kn = 101 * scale;
    seq.loop_2d = kn;
    par.loop_2d = kn;
    seq.za = livermore::Grid(kn + 2, 7, 0.4);
    par.za = seq.za;
    seq.zz = livermore::Grid(kn + 2, 7, 0.5);
    par.zz = seq.zz;
    seq.y.resize(kn + 2, 0.3);
    par.y = seq.y;
    auto seg = seq;

    support::Stopwatch watch;
    livermore::kernel23_paper_fragment(seq);
    const double seq_ms = watch.lap() * 1e3;

    core::OrdinaryIrOptions options;
    options.pool = &pool;
    livermore::kernel23_fragment_parallel(par, options);
    const double par_ms = watch.lap() * 1e3;

    livermore::kernel23_fragment_segmented(seg, &pool);
    const double seg_ms = watch.lap() * 1e3;

    // The fragment's dependence shape (one chain per column j = 1..6, as
    // kernel23_fragment_parallel builds it), compiled to a jumping schedule
    // for its round count.
    core::OrdinaryIrSystem shape;
    shape.cells = par.za.rows() * par.za.cols();
    for (std::size_t j = 1; j < 7; ++j) {
      for (std::size_t k = 1; k < kn; ++k) {
        shape.f.push_back(par.za.flat(k - 1, j));
        shape.g.push_back(par.za.flat(k, j));
      }
    }
    const std::size_t rounds =
        core::compile_plan(shape, {.engine = core::EngineChoice::kJumping}).jump.rounds();

    double max_err = 0.0;
    for (std::size_t i = 0; i < seq.za.data().size(); ++i) {
      max_err = std::max(max_err, std::fabs(seq.za.data()[i] - par.za.data()[i]));
      max_err = std::max(max_err, std::fabs(seq.za.data()[i] - seg.za.data()[i]));
    }
    table.add_row({std::to_string(kn), support::fmt_f(seq_ms, 3),
                   support::fmt_f(par_ms, 3), support::fmt_f(seg_ms, 3),
                   std::to_string(rounds), support::fmt_g(max_err, 2),
                   max_err < 1e-6 ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("rounds grow as log(rows): the paper's 'calculated in O(log n) steps'\n");
  return 0;
}
