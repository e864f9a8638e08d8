/// Batch workloads: one input to one certified maximum matching, repeated.
///
///   batch-rmat  g500 RMAT, scale 18, edge factor 16, generated in-process
///               by gen::rmat from the seed (the ROADMAP main case);
///   batch-road  the road_usa stand-in at 0.2 of its side (144 x 144
///               near-planar mesh), written once untimed to a MatrixMarket
///               file and read back by every solve.
///
/// Both solve with PipelineRun on 64 simulated cores, each solve under its
/// own seeded load-balancing permutation. The untraced run repeats whole
/// solves; the traced run drives the pipeline's public pieces (permute,
/// DistMatrix::distribute, dist_maximal_matching, McmDistStepper) itself so
/// that each stage can be timed from here, with the mcmtrace tracer off for
/// the stage times and on for the per-primitive categories, and adds a
/// one-lane solve as the lane-speedup baseline.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "gen/rmat.hpp"
#include "gen/suite.hpp"
#include "gridsim/trace.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/verify.hpp"
#include "matrix/csc.hpp"
#include "matrix/mmio.hpp"
#include "matrix/permute.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace mcm;

constexpr int kSimCores = 64;
constexpr int kMinSolves = 3;
constexpr std::uint64_t kRoadSeed = 1;
constexpr double kRoadScale = 0.2;

struct BatchInput {
  bool road = false;
  RmatParams params;  // rmat only
  std::uint64_t seed = 1;
  std::string mtx_path;  // road only
  double nominal_solve_s = 1;  // sizes the solve count to --seconds

  /// Solve `index` of a run draws its own load-balancing permutation (paper
  /// §IV-A) from the seed, so a run's medians cover several permutations.
  [[nodiscard]] PipelineOptions pipeline(int index) const {
    PipelineOptions options;
    options.permute_seed = seed * 1000 + static_cast<std::uint64_t>(index);
    return options;
  }

  [[nodiscard]] CooMatrix acquire() const {
    if (road) return read_matrix_market_file(mtx_path);
    Rng rng(seed);
    return rmat(params, rng);
  }
};

SimConfig batch_config(int lanes) {
  SimConfig config = SimConfig::auto_config(kSimCores, 12);
  config.host_threads = lanes;
  return config;
}

/// Solves per untraced run: a fixed function of --seconds (never of the
/// host's speed), so the modeled metrics repeat exactly.
int solves(const BatchInput& in, const Args& args) {
  return std::max(kMinSolves,
                  static_cast<int>(std::lround(args.seconds / in.nominal_solve_s)));
}

/// One untraced PipelineRun solve, timed from input acquisition.
struct Solve {
  CooMatrix input;
  PipelineResult result;
  VerifyResult verdict;
  double setup_s = 0;
  double total_s = 0;
};

Solve solve(const BatchInput& in, const SimConfig& config, int index) {
  Solve s;
  const Clock::time_point start = Clock::now();
  s.input = in.acquire();
  PipelineRun run(config, s.input, in.pipeline(index));
  run.step();  // permute, distribute, initializer
  s.setup_s = seconds_since(start);
  while (run.step()) {
  }
  s.result = run.take_result();
  const CscMatrix csc = CscMatrix::from_coo(s.input);
  s.verdict = verify_maximum(csc, s.result.matching);
  s.total_s = seconds_since(start);
  return s;
}

/// The pipeline driven stage by stage (the statements PipelineRun runs),
/// each stage timed by the benchmark.
struct StagedSolve {
  CooMatrix input;  // empty when the caller supplied it
  Matching matching;
  CostLedger ledger;
  McmDistStats mcm_stats;
  DistMaximalStats init_stats;
  double block_imbalance = 0;
  double input_s = 0;
  double permute_s = 0;
  double distribute_s = 0;
  double init_s = 0;
  double mcm_s = 0;
  double verify_s = 0;
  double total_s = 0;
  std::vector<double> step_s;
  VerifyResult verdict;
};

/// `given` skips input acquisition (the one-lane baseline reuses the input);
/// `verify` = false skips the certificate.
StagedSolve staged_solve(const BatchInput& in, const SimConfig& config,
                         const CooMatrix* given, bool verify) {
  const PipelineOptions pipeline = in.pipeline(0);
  StagedSolve s;
  const Clock::time_point start = Clock::now();
  Clock::time_point t = start;
  if (given == nullptr) s.input = in.acquire();
  const CooMatrix& a = given != nullptr ? *given : s.input;
  s.input_s = seconds_since(t);

  SimContext ctx(config);
  t = Clock::now();
  Rng rng(pipeline.permute_seed);
  const Permutation perm_r = Permutation::random(a.n_rows, rng);
  const Permutation perm_c = Permutation::random(a.n_cols, rng);
  const CooMatrix working = permute(a, perm_r, perm_c);
  s.permute_s = seconds_since(t);

  t = Clock::now();
  const DistMatrix dist = DistMatrix::distribute(ctx, working);
  s.distribute_s = seconds_since(t);
  s.block_imbalance = static_cast<double>(dist.max_block_nnz())
                      * ctx.processes()
                      / static_cast<double>(std::max<Index>(1, dist.nnz()));

  t = Clock::now();
  const Matching initial = dist_maximal_matching(
      ctx, dist, pipeline.initializer, &s.init_stats);
  s.init_s = seconds_since(t);

  t = Clock::now();
  McmDistStepper stepper(ctx, dist, initial, pipeline.mcm, &s.mcm_stats);
  for (bool more = true; more;) {
    const Clock::time_point step = Clock::now();
    more = stepper.step();
    s.step_s.push_back(seconds_since(step));
  }
  const Matching permuted = stepper.take_result();
  s.mcm_s = seconds_since(t);

  t = Clock::now();
  s.matching = Matching(permuted.n_rows(), permuted.n_cols());
  s.matching.mate_r = unpermute_mates(permuted.mate_r, perm_r, perm_c);
  s.matching.mate_c = unpermute_mates(permuted.mate_c, perm_c, perm_r);
  s.permute_s += seconds_since(t);
  s.ledger = ctx.ledger();

  if (verify) {
    t = Clock::now();
    const CscMatrix csc = CscMatrix::from_coo(a);
    s.verdict = verify_maximum(csc, s.matching);
    s.verify_s = seconds_since(t);
  }
  s.total_s = seconds_since(start);
  return s;
}

/// Output gate of one batch matching: certified by the König cover and of
/// Hopcroft-Karp cardinality.
void gate(Report& report, const char* what, const VerifyResult& verdict,
          Index cardinality, Index hk_cardinality) {
  report.attempt();
  if (!verdict) {
    report.fail(std::string(what) + ": not certified: " + verdict.reason);
  } else if (cardinality != hk_cardinality) {
    report.fail(std::string(what) + ": cardinality "
                + std::to_string(cardinality) + " != Hopcroft-Karp "
                + std::to_string(hk_cardinality));
  }
}

Index hopcroft_karp_cardinality(const CooMatrix& a) {
  return hopcroft_karp(CscMatrix::from_coo(a)).cardinality();
}

void run_untraced(const BatchInput& in, const Args& args, Report& report) {
  const SimConfig config = batch_config(args.lanes);
  std::vector<double> setup_s;
  std::vector<double> total_s;
  std::vector<double> modeled_s;
  std::vector<VerifyResult> verdicts;
  std::vector<Index> cardinalities;
  CooMatrix input;  // the last solve's; every solve acquires the same one
  const int n = solves(in, args);
  // One untimed warm-up solve: the first solve of a process pays for page
  // faults on memory the later solves reuse.
  (void)solve(in, config, n);
  for (int i = 0; i < n; ++i) {
    Solve s = solve(in, config, i);
    verdicts.push_back(s.verdict);
    cardinalities.push_back(s.result.matching.cardinality());
    setup_s.push_back(s.setup_s);
    total_s.push_back(s.total_s);
    modeled_s.push_back(s.result.ledger.total_us() * 1e-6);
    std::fprintf(stderr, "  solve %d: setup %.3f s, total %.3f s, modeled %.6f s\n",
                 i, s.setup_s, s.total_s, modeled_s.back());
    if (i + 1 == n) input = std::move(s.input);
  }
  // The Hopcroft-Karp reference is gate work: it runs after the peak
  // resident set is read.
  report.set("peak_rss_mb", peak_rss_mb());
  const Index hk = hopcroft_karp_cardinality(input);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    gate(report, "batch solve", verdicts[i], cardinalities[i], hk);
  }
  double sum = 0;
  for (const double t : total_s) sum += t;
  report.set("time_to_matching_s", median(total_s));
  report.set("goodput_per_s", static_cast<double>(total_s.size()) / sum);
  report.set("setup_s", median(setup_s));
  double modeled_sum = 0;
  for (const double t : modeled_s) modeled_sum += t;
  report.set("modeled_s", modeled_sum / static_cast<double>(modeled_s.size()));
}

void run_traced(const BatchInput& in, const Args& args, Report& report) {
  const SimConfig config = batch_config(args.lanes);
  // Stage times with the tracer off, after an untimed warm-up solve, as in
  // the untraced run.
  trace::set_mode(TraceMode::Off);
  (void)staged_solve(in, config, nullptr, false);
  const StagedSolve s = staged_solve(in, config, nullptr, true);
  const Index hk = hopcroft_karp_cardinality(s.input);
  gate(report, "staged solve", s.verdict, s.matching.cardinality(), hk);

  report.set(in.road ? "matrix.read_mtx_s" : "gen.rmat_s", s.input_s);
  report.set("matrix.permute_s", s.permute_s);
  report.set("dist.distribute_s", s.distribute_s);
  report.set("dist.block_imbalance", s.block_imbalance);
  report.set("core.init_s", s.init_s);
  report.set("core.init_match_frac",
             static_cast<double>(s.init_stats.cardinality)
                 / static_cast<double>(std::max<Index>(1, s.matching.cardinality())));
  report.set("core.mcm_s", s.mcm_s);
  report.set("core.superstep_p50_ms", percentile(s.step_s, 0.5) * 1e3);
  report.set("core.superstep_p99_ms", percentile(s.step_s, 0.99) * 1e3);
  report.set("core.supersteps", static_cast<double>(s.step_s.size()));
  report.set("core.phases", static_cast<double>(s.mcm_stats.phases));
  report.set("matching.verify_s", s.verify_s);
  report.set("matching.cardinality",
             static_cast<double>(s.matching.cardinality()));
  ledger_metrics(report, s.ledger);
  const double staged = s.input_s + s.permute_s + s.distribute_s + s.init_s
                        + s.mcm_s + s.verify_s;
  report.set("trace.unaccounted_frac", 1.0 - staged / s.total_s);

  // The same solve with mcmtrace recording: per-primitive host time (from
  // the first traced solve), and the tracer's cost as the overhead against
  // untraced solves. Traced and untraced solves alternate, so that host
  // drift favours neither side; the road mesh, whose solves are short,
  // takes the median of several pairs.
  const int pairs = in.road ? 5 : 1;
  std::vector<double> traced_s;
  std::vector<double> untraced_s{s.total_s};
  for (int k = 0; k < pairs; ++k) {
    trace::set_mode(TraceMode::On);
    trace::tracer().clear();
    const StagedSolve traced = staged_solve(in, config, nullptr, true);
    if (k == 0) prim_metrics(report);
    trace::set_mode(TraceMode::Off);
    trace::tracer().clear();
    gate(report, "traced solve", traced.verdict,
         traced.matching.cardinality(), hk);
    const StagedSolve again = staged_solve(in, config, nullptr, true);
    gate(report, "untraced solve", again.verdict,
         again.matching.cardinality(), hk);
    traced_s.push_back(traced.total_s);
    untraced_s.push_back(again.total_s);
  }
  report.set("trace.overhead_frac", median(traced_s) / median(untraced_s) - 1.0);

  // One-lane baseline of the same solve (the ledger and matching must not
  // depend on the lane count).
  const StagedSolve one_lane = staged_solve(in, batch_config(1), &s.input, false);
  report.attempt();
  if (one_lane.matching.mate_c != s.matching.mate_c
      || one_lane.ledger.total_us() != s.ledger.total_us()) {
    report.fail("one-lane solve differs from the multi-lane solve");
  }
  report.set("core.mcm_1lane_s", one_lane.mcm_s);
  report.set("core.lane_speedup", one_lane.mcm_s / s.mcm_s);
}

}  // namespace

void run_batch(const Args& args, Report& report) {
  BatchInput in;
  in.seed = args.seed;
  in.road = args.workload == "batch-road";
  if (in.road) {
    // Like the real road_usa it stands in for, the mesh is one fixed
    // matrix; the seed varies the permutations only. The stand-in is used
    // at 0.2 of its side (144 x 144 mesh, 21K vertices, 212 supersteps):
    // a run medians over many permutations, and a working set of about
    // 20 MB kept the run-to-run spread lowest on a shared host (see
    // README.md); --reduce R halves the side R more times.
    const double scale = kRoadScale / static_cast<double>(1 << args.reduce);
    Rng rng(kRoadSeed);
    const CooMatrix road = suite_matrix("road_usa", scale).build(rng);
    in.nominal_solve_s = 0.2;
    in.mtx_path = args.data_dir + "/road_usa-" + std::to_string(args.reduce)
                  + ".mtx";
    write_matrix_market_file(in.mtx_path, road);
    std::fprintf(stderr, "batch-road: %lld x %lld, %lld nnz -> %s\n",
                 static_cast<long long>(road.n_rows),
                 static_cast<long long>(road.n_cols),
                 static_cast<long long>(road.nnz()), in.mtx_path.c_str());
  } else {
    in.params = RmatParams::g500(18 - args.reduce);
    in.params.edge_factor = 16.0;
    in.nominal_solve_s = 8.0;
  }
  if (args.trace) {
    run_traced(in, args, report);
  } else {
    run_untraced(in, args, report);
  }
  if (in.road) std::remove(in.mtx_path.c_str());
}

}  // namespace perfbench
