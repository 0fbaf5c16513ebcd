// Fleet scaling for the sharded simulation kernel: the same coordinated
// fleet (per-tenant sub-simulators advanced in conservative time windows)
// at 1 / 2 / 4 / 8 worker threads. Speedups are parallel efficiency
// against the kernel's own 1-thread run — the fastest single-threaded
// path there is.
//
// Two scenario sizes: fleet-4x16 with 8 tenants (the CI gate size) and
// fleet-64x256 (the scale target: 64 tenants x 256 clients, DESIGN.md §9)
// on a compressed horizon. For every scenario the bench also fingerprints
// each run — repairs, models, event counts — and fails if any thread count
// perturbs a single bit (the determinism contract).
//
// Repetitions are interleaved (rep 1 at every thread count, then rep 2,
// ...) so a load spike on the host lands on all thread counts alike, and
// every speedup is a ratio of medians. Emits BENCH_fleet.json (next to the
// binary, or argv[1]) with each cell's median and min/max wall time.
// Speedup gates are hardware-aware: wall-clock targets are only enforced
// when the host actually has the cores (hw_concurrency >= 4); a 1-core
// container still runs everything and enforces determinism, but records
// gates_enforced = false instead of failing on physics. On CI's 4-vCPU
// Release runners the gates are real: fleet-4x16 must reach 2x at 4
// threads and fleet-64x256 must reach 3x at 4+ threads, both vs 1 thread.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "acme/adl.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

#include "bench_output.hpp"

namespace {

using namespace arcadia;
using Clock = std::chrono::steady_clock;

struct ScenarioSpec {
  std::string name;
  int tenants;
  double horizon_s;
  int reps;
};

struct Cell {
  std::size_t sim_threads = 1;
  double wall_s = 0.0;  ///< median over reps (run_once: the one run)
  double min_wall_s = 0.0;
  double max_wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t repairs = 0;
  std::uint64_t fingerprint = 0;
};

core::FleetOptions make_options(const ScenarioSpec& spec,
                                std::size_t sim_threads) {
  core::FleetOptions opt;
  opt.scenario = spec.name;
  opt.tenants = spec.tenants;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults(spec.name);
  // Always-on Figure 7 schedule, compressed so the stress phases (and the
  // repairs they force) land inside the bench horizon. Every shard carries
  // load the whole run — the regime the parallel kernel exists for.
  opt.config.quiescent_end = SimTime::seconds(10);
  opt.config.stress_start = SimTime::seconds(spec.horizon_s * 0.3);
  opt.config.stress_end = SimTime::seconds(spec.horizon_s * 0.8);
  opt.config.fleet.phase_shift = SimTime::seconds(2);
  opt.config.fleet.active_duration = SimTime::zero();  // always on
  // Monitoring-heavy control plane: chatty gauges and a 1 s sweep, same as
  // the historical control-plane bench, so the two bench generations stay
  // comparable.
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = 1;  // isolate the KERNEL's scaling
  opt.coordinated = true;
  opt.sim_threads = sim_threads;
  return opt;
}

/// FNV-1a over every tenant's repair sequence and printed model: two runs
/// fingerprint equal iff they made the same repairs at the same sim-times
/// and left the same architecture behind.
std::uint64_t fingerprint_fleet(core::Fleet& fleet) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet.tenant(t);
    util::SerialLane in_lane(tenant.lane());
    for (const repair::RepairRecord& r : tenant.framework->engine().records()) {
      mix_bytes(r.strategy.data(), r.strategy.size());
      mix_bytes(r.element.data(), r.element.size());
      const double started = r.started.as_seconds();
      mix_bytes(&started, sizeof(started));
    }
    const std::string model = acme::print_system(tenant.framework->system());
    mix_bytes(model.data(), model.size());
  }
  return h;
}

Cell run_once(const ScenarioSpec& spec, std::size_t sim_threads) {
  sim::Simulator sim;
  auto fleet = core::FrameworkBuilder::build_fleet(
      sim, make_options(spec, sim_threads));
  fleet->start();
  const auto t0 = Clock::now();
  fleet->run_until(SimTime::seconds(spec.horizon_s));
  const auto t1 = Clock::now();

  Cell c;
  c.sim_threads = sim_threads;
  c.wall_s = std::chrono::duration<double>(t1 - t0).count();
  c.events = sim.executed() + fleet->coordinator()->stats().shard_events;
  for (std::size_t t = 0; t < fleet->tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    c.repairs += tenant.framework->engine().records().size();
  }
  c.fingerprint = fingerprint_fleet(*fleet);
  return c;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct ScenarioResult {
  ScenarioSpec spec;
  std::vector<Cell> cells;  // 1 / 2 / 4 / 8 threads; cells[0] is 1 thread
  bool deterministic = true;
};

/// Every thread count once per rep, reps interleaved. The simulation is
/// deterministic — every rep produces identical events, repairs, and
/// fingerprints — so only the wall clock varies; each cell reports its
/// median and spread.
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const std::vector<std::size_t>& thread_counts) {
  ScenarioResult res;
  res.spec = spec;
  std::vector<std::vector<double>> walls(thread_counts.size());
  for (int rep = 0; rep < spec.reps; ++rep) {
    std::cout << "bench_fleet_scaling: " << spec.name << " x" << spec.tenants
              << " tenants, rep " << rep + 1 << "/" << spec.reps << "..."
              << std::endl;
    for (std::size_t k = 0; k < thread_counts.size(); ++k) {
      const Cell c = run_once(spec, thread_counts[k]);
      walls[k].push_back(c.wall_s);
      if (rep == 0) res.cells.push_back(c);
      const Cell& ref = res.cells.front();
      if (c.fingerprint != ref.fingerprint || c.events != ref.events) {
        res.deterministic = false;
      }
    }
  }
  for (std::size_t k = 0; k < res.cells.size(); ++k) {
    Cell& c = res.cells[k];
    c.wall_s = median(walls[k]);
    c.min_wall_s = *std::min_element(walls[k].begin(), walls[k].end());
    c.max_wall_s = *std::max_element(walls[k].begin(), walls[k].end());
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      arcadia::bench::output_path(argc, argv, "BENCH_fleet.json");
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<ScenarioSpec> specs = {
      {"fleet-4x16", 8, 120.0, 5},
      {"fleet-64x256", 64, 45.0, 3},
  };

  std::vector<ScenarioResult> results;
  for (const ScenarioSpec& spec : specs) {
    results.push_back(run_scenario(spec, thread_counts));
  }

  // Wall-clock gates only bind where the host has the cores to honor them;
  // determinism binds everywhere.
  const bool gates_enforced = hw >= 4;

  std::ofstream json(out_path);
  json << "{\n  \"hw_concurrency\": " << hw << ",\n"
       << "  \"gates_enforced\": " << (gates_enforced ? "true" : "false")
       << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& res = results[i];
    json << "    {\n"
         << "      \"name\": \"" << res.spec.name << "\",\n"
         << "      \"tenants\": " << res.spec.tenants << ",\n"
         << "      \"horizon_sim_s\": " << res.spec.horizon_s << ",\n"
         << "      \"reps\": " << res.spec.reps << ",\n"
         << "      \"deterministic\": "
         << (res.deterministic ? "true" : "false") << ",\n"
         << "      \"cells\": [\n";
    for (std::size_t k = 0; k < res.cells.size(); ++k) {
      const Cell& c = res.cells[k];
      json << "        {\"sim_threads\": " << c.sim_threads
           << ", \"wall_s\": " << c.wall_s
           << ", \"min_wall_s\": " << c.min_wall_s
           << ", \"max_wall_s\": " << c.max_wall_s
           << ", \"speedup_vs_1_thread\": "
           << res.cells.front().wall_s / c.wall_s
           << ", \"events\": " << c.events << ", \"repairs\": " << c.repairs
           << "}" << (k + 1 < res.cells.size() ? "," : "") << "\n";
    }
    json << "      ]\n    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  bool pass = true;
  for (const ScenarioResult& res : results) {
    const Cell& one = res.cells.front();
    std::cout << res.spec.name << ": " << one.events << " events, "
              << one.repairs << " repairs; median of " << res.spec.reps
              << " interleaved reps\n";
    for (const Cell& c : res.cells) {
      std::cout << "  " << c.sim_threads << " thread"
                << (c.sim_threads == 1 ? " " : "s") << ": " << c.wall_s
                << " s [" << c.min_wall_s << ", " << c.max_wall_s << "]  ("
                << one.wall_s / c.wall_s << "x vs 1 thread)\n";
    }
    if (!res.deterministic) {
      std::cout << "FAIL: " << res.spec.name
                << " fingerprints differ across sim-thread counts — the "
                   "sharded kernel's determinism contract is broken\n";
      pass = false;
    }
    if (gates_enforced) {
      double at4 = 0.0, best_4plus = 0.0;
      for (const Cell& c : res.cells) {
        const double speedup = one.wall_s / c.wall_s;
        if (c.sim_threads == 4) at4 = speedup;
        if (c.sim_threads >= 4 && c.sim_threads <= hw) {
          best_4plus = std::max(best_4plus, speedup);
        }
      }
      if (res.spec.name == "fleet-4x16" && at4 < 2.0) {
        std::cout << "FAIL: fleet-4x16 4-thread speedup " << at4
                  << "x < 2.0x\n";
        pass = false;
      }
      if (res.spec.name == "fleet-64x256" && best_4plus < 3.0) {
        std::cout << "FAIL: fleet-64x256 best 4+-thread speedup "
                  << best_4plus << "x < 3.0x\n";
        pass = false;
      }
    }
  }
  if (!gates_enforced) {
    std::cout << "NOTE: hw_concurrency = " << hw
              << " < 4 — wall-clock speedup gates skipped (determinism "
                 "still enforced); run on a 4+-core host for the real "
                 "gates\n";
  }
  std::cout << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
