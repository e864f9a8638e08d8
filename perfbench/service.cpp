/// service-mixed: an open loop of Poisson arrivals against QueryEngine.
///
/// The traffic is gen/workload's default workload (mixed sizes at scale 1,
/// half the queries on the hot third of the pool) at the repository's
/// default service configuration (ServiceConfig{}, 16 simulated cores per
/// query, as in bench_service and mcm_service). The pool graphs are
/// registered with register_graph, and a seeded share of the arrivals are
/// UpdateQuery writes (one edge each, from make_churn) against them, so
/// cache entries are invalidated while reads run. The values that depart
/// from those defaults (rate, pool size, write share, latency limit) are
/// derived from measurements below; perfbench/README.md records them.
///
/// One thread submits every query at its scheduled time with try_submit (a
/// refusal counts as a failure) and, in the engine's pump mode, executes the
/// slices between arrivals; each latency is timed from when its query was
/// due. Worker threads are not used: on a shared host their cross-CPU
/// wake-ups made the latencies unrepeatable from run to run. After the
/// stream every fresh result is certified on the graph version it solved
/// and every cache hit is compared with the fresh result it repeats
/// (untimed).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/workload.hpp"
#include "matching/verify.hpp"
#include "matrix/csc.hpp"
#include "matrix/delta.hpp"
#include "perfbench.hpp"
#include "service/query_engine.hpp"

namespace perfbench {
namespace {

using namespace mcm;

constexpr int kSimCores = 16;  // 4 x 4 grid per query
/// Under FIFO a solve misses the cache exactly when a write to its graph
/// came since the graph's previous solve, so the hit ratio is about
/// 1 - kWriteFraction (0.38-0.41 measured). At a write share of 0.5 the
/// median latency sits on the step between hits and fresh solves and
/// spread 0.21 (quartile distance / median) over 5 seeds; at 0.6 it falls
/// among the fresh solves and spread 0.09.
constexpr double kWriteFraction = 0.6;
/// At this rate a 25 s run holds about 1250 solves, so the p99 latency has
/// at least 10 samples beyond it. The pump thread is busy for 3.3% of the
/// stream (service.utilization), so the rate is about 1/30 of capacity.
constexpr double kRatePerS = 125;
/// Twice the p99 latency measured at this load (1.5 ms): goodput falls
/// once the latency tail doubles, and not with run-to-run noise.
constexpr double kLatencyLimitS = 0.003;
/// The default pool of 6 graphs made the summed modeled time depend on
/// which few graphs a seed draws (spread 0.19 over 5 seeds); 48 graphs
/// bring it to 0.06-0.07.
constexpr int kPool = 48;
constexpr int kSetups = 5;

/// One registered graph and the writes the stream applies to it, in
/// submission order.
struct PoolGraph {
  std::shared_ptr<const CooMatrix> base;
  std::vector<EdgeUpdate> writes;  // writes[k] turns version k into k + 1
  std::uint64_t handle = 0;
};

struct Op {
  double due_s = 0;   // since stream start
  int graph = 0;
  bool write = false;
  std::size_t version = 0;  // solves: writes to `graph` submitted before it
  std::uint64_t mcm_seed = 0;
  int priority = 0;
};

struct Plan {
  std::vector<PoolGraph> pool;
  std::vector<Op> ops;
};

Plan make_plan(const Args& args) {
  WorkloadConfig config;
  config.queries = static_cast<int>(std::lround(kRatePerS * args.seconds));
  config.rate_per_s = kRatePerS;
  config.seed = args.seed;
  config.graph_pool = kPool;
  const Workload workload = make_workload(config);

  Plan plan;
  plan.pool.resize(workload.pool.size());
  std::vector<int> writes(workload.pool.size(), 0);
  Rng coin(args.seed ^ 0x9e3779b97f4a7c15ULL);
  for (const WorkloadQuery& q : workload.queries) {
    Op op;
    op.due_s = q.arrival_s;
    op.write = coin.next_bool(kWriteFraction);
    op.graph = q.graph_id;
    int& graph_writes = writes[static_cast<std::size_t>(op.graph)];
    op.version = static_cast<std::size_t>(graph_writes);
    if (op.write) ++graph_writes;
    op.mcm_seed = q.mcm_seed;
    op.priority = q.priority;
    plan.ops.push_back(op);
  }
  for (std::size_t g = 0; g < plan.pool.size(); ++g) {
    PoolGraph& pg = plan.pool[g];
    pg.base = workload.pool[g];
    ChurnConfig churn;
    churn.updates = writes[g];
    churn.seed = args.seed + g;
    pg.writes = make_churn(*pg.base, churn);
  }
  return plan;
}

/// What the run keeps of one QueryOutcome: its timings and counters and,
/// for solves, the matching the gate checks after the stream. The rest of
/// the outcome is dropped on arrival, so that the peak resident set stays
/// the engine's.
struct Answer {
  std::size_t op = 0;
  double lag_s = 0;  // how late the submission ran
  std::uint64_t id = 0;
  std::string error;
  bool cache_hit = false;
  std::uint64_t supersteps = 0;
  std::uint64_t invalidated = 0;
  double queue_wait_s = 0;
  double service_s = 0;
  double latency_s = 0;
  double modeled_us = 0;
  Matching matching;

  void take(QueryOutcome&& o) {
    id = o.id;
    error = std::move(o.error);
    cache_hit = o.cache_hit;
    supersteps = o.supersteps;
    invalidated = o.invalidated;
    queue_wait_s = o.queue_wait_s;
    service_s = o.service_s;
    latency_s = o.latency_s;
    modeled_us = o.result.ledger.total_us();
    matching = std::move(o.result.matching);
  }
};

/// Certifies every fresh solve on the graph version it solved. Versions are
/// rebuilt one at a time, walking each graph's solves in version order.
void certify_fresh(const Plan& plan, const std::vector<const Answer*>& fresh,
                   Report& report) {
  std::vector<const Answer*> order = fresh;
  std::sort(order.begin(), order.end(), [&plan](const Answer* a, const Answer* b) {
    const Op& x = plan.ops[a->op];
    const Op& y = plan.ops[b->op];
    return std::tie(x.graph, x.version) < std::tie(y.graph, y.version);
  });
  int graph = -1;
  std::size_t version = 0;
  CooMatrix current;
  std::unique_ptr<CscMatrix> csc;
  for (const Answer* a : order) {
    const Op& op = plan.ops[a->op];
    const PoolGraph& pg = plan.pool[static_cast<std::size_t>(op.graph)];
    if (op.graph != graph) {
      graph = op.graph;
      version = 0;
      current = *pg.base;
      csc.reset();
    }
    for (; version < op.version; ++version) {
      current = apply_edge_updates(current, {pg.writes[version]});
      csc.reset();
    }
    if (csc == nullptr) {
      csc = std::make_unique<CscMatrix>(CscMatrix::from_coo(current));
    }
    if (!verify_maximum(*csc, a->matching)) {
      report.fail("query " + std::to_string(a->id)
                  + ": result is not a certified maximum matching of its graph");
    }
  }
}

}  // namespace

void run_service(const Args& args, Report& report) {
  Plan plan = make_plan(args);
  ServiceConfig config;
  config.lanes_per_worker = args.lanes;

  // Set-up: engine construction plus registering the pool.
  std::vector<double> setup_s;
  std::unique_ptr<QueryEngine> engine;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const Clock::time_point t = Clock::now();
    engine = std::make_unique<QueryEngine>(config);
    for (PoolGraph& pg : plan.pool) {
      pg.handle = engine->register_graph(*pg.base);
    }
    setup_s.push_back(seconds_since(t));
  }

  // Open loop: submit each op when it is due. The engine runs in pump mode,
  // so this thread also executes the slices: until the next op is due it
  // takes the oldest admitted query's outcome (QueryEngine::wait pumps FIFO
  // slices, which serve that query first), the way a client awaiting each
  // reply would; retiring outcomes keeps the engine's query table at the
  // in-flight queries.
  std::vector<Answer> answers;
  answers.reserve(plan.ops.size());
  std::map<std::uint64_t, Answer> in_flight;  // by query id (ids ascend)
  std::vector<double> lag_s;
  std::vector<std::size_t> next_write(plan.pool.size(), 0);
  double busy_s = 0;
  CostLedger ledger;  // summed over answered solves
  const auto take_oldest = [&] {
    const Clock::time_point t = Clock::now();
    const auto oldest = in_flight.begin();
    QueryOutcome outcome = engine->wait(oldest->first);
    if (outcome.ok() && !plan.ops[oldest->second.op].write) {
      ledger.merge(outcome.result.ledger);
    }
    oldest->second.take(std::move(outcome));
    answers.push_back(std::move(oldest->second));
    in_flight.erase(oldest);
    busy_s += seconds_since(t);
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    PoolGraph& pg = plan.pool[static_cast<std::size_t>(op.graph)];
    QuerySpec spec;
    spec.graph_handle = pg.handle;
    spec.sim.cores = kSimCores;
    spec.sim.threads_per_process = 1;
    spec.pipeline.mcm.seed = op.mcm_seed;
    spec.priority = op.priority;
    if (op.write) {
      spec.updates = std::make_shared<const std::vector<EdgeUpdate>>(
          std::vector<EdgeUpdate>{
              pg.writes[next_write[static_cast<std::size_t>(op.graph)]++]});
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(op.due_s));
    while (!in_flight.empty() && Clock::now() < due) take_oldest();
    // Idle: spin rather than sleep. Waking a sleeping thread can take
    // milliseconds on a shared host, and an idle CPU slows down.
    while (Clock::now() < due) {
    }
    const double lag = std::chrono::duration<double>(Clock::now() - due).count();
    lag_s.push_back(lag);
    report.attempt();
    const std::optional<std::uint64_t> id = engine->try_submit(std::move(spec));
    if (!id) {
      report.fail("query refused at admission");
      continue;
    }
    Answer& a = in_flight[*id];
    a.op = i;
    a.lag_s = lag;
  }
  while (!in_flight.empty()) take_oldest();
  const double span_s = static_cast<double>(plan.ops.size()) / kRatePerS;
  report.set("peak_rss_mb", peak_rss_mb());

  // Gate and latency bookkeeping (untimed from here on).
  std::vector<double> latency_s;       // solves, from due time
  std::vector<double> queue_wait_s;    // solves
  std::vector<double> exec_s;          // fresh solves
  std::vector<double> apply_s;         // writes
  std::uint64_t good = 0;
  std::uint64_t hits = 0;
  std::uint64_t fresh_supersteps = 0;
  std::uint64_t invalidations = 0;
  double modeled_us = 0;
  Index cardinality = 0;  // summed over answered solves
  // Fresh results by (graph, version, seed) for the cache-hit comparison.
  std::map<std::tuple<int, std::size_t, std::uint64_t>, const Matching*>
      fresh_by_key;
  std::vector<const Answer*> fresh;
  std::vector<const Answer*> hit_answers;
  for (const Answer& a : answers) {
    const Op& op = plan.ops[a.op];
    if (!a.error.empty()) {
      report.fail("query " + std::to_string(a.id) + " failed: " + a.error);
      continue;
    }
    if (op.write) {
      apply_s.push_back(a.service_s);
      invalidations += a.invalidated;
      continue;
    }
    const double latency = a.lag_s + a.latency_s;
    latency_s.push_back(latency);
    queue_wait_s.push_back(a.queue_wait_s);
    modeled_us += a.modeled_us;
    cardinality += a.matching.cardinality();
    if (latency <= kLatencyLimitS) ++good;
    if (a.cache_hit) {
      ++hits;
      hit_answers.push_back(&a);
      continue;
    }
    fresh.push_back(&a);
    fresh_supersteps += a.supersteps;
    exec_s.push_back(a.service_s);
    const Matching*& twin = fresh_by_key[{op.graph, op.version, op.mcm_seed}];
    if (twin != nullptr && twin->mate_c != a.matching.mate_c) {
      report.fail("query " + std::to_string(a.id)
                  + ": two fresh solves of one input differ");
    }
    twin = &a.matching;
  }
  // FIFO slices on one thread resolve every solve's graph after exactly
  // the writes to it that were submitted before the solve.
  certify_fresh(plan, fresh, report);
  for (const Answer* a : hit_answers) {
    const Op& op = plan.ops[a->op];
    const Matching& m = a->matching;
    const auto twin = fresh_by_key.find({op.graph, op.version, op.mcm_seed});
    if (twin == fresh_by_key.end() || twin->second->mate_c != m.mate_c
        || twin->second->mate_r != m.mate_r) {
      report.fail("query " + std::to_string(a->id)
                  + ": cache hit differs from the fresh result it repeats");
    }
  }
  std::fprintf(stderr,
               "service-mixed: %zu ops (%zu solves, %llu hits), span %.2f s, "
               "busy %.2f s\n",
               plan.ops.size(), latency_s.size(),
               static_cast<unsigned long long>(hits), span_s, busy_s);

  if (!args.trace) {
    report.set("time_to_matching_s", percentile(latency_s, 0.5));
    report.set("goodput_per_s", static_cast<double>(good) / span_s);
    report.set("setup_s", median(setup_s));
    report.set("modeled_s", modeled_us * 1e-6);
    return;
  }
  report.set("service.query_p99_s", percentile(latency_s, 0.99));
  report.set("service.queue_wait_p50_s", percentile(queue_wait_s, 0.5));
  report.set("service.queue_wait_p99_s", percentile(queue_wait_s, 0.99));
  report.set("service.exec_p50_s", percentile(exec_s, 0.5));
  report.set("service.supersteps_per_query",
             static_cast<double>(fresh_supersteps)
                 / static_cast<double>(std::max<std::size_t>(1, fresh.size())));
  report.set("service.cache_hit_ratio",
             static_cast<double>(hits)
                 / static_cast<double>(std::max<std::size_t>(1, latency_s.size())));
  report.set("service.invalidations", static_cast<double>(invalidations));
  report.set("service.update_apply_p99_s", percentile(apply_s, 0.99));
  report.set("service.gen_lag_p99_s", percentile(lag_s, 0.99));
  report.set("service.utilization", busy_s / span_s);
  report.set("matching.cardinality", static_cast<double>(cardinality));
  ledger_metrics(report, ledger);
}

}  // namespace perfbench
