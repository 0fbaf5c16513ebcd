// Arcadia benchmark binary: runs one fleet workload through the public
// FrameworkBuilder::build_fleet / Fleet::start / Fleet::run_until API on the
// sharded kernel, repeatedly, for a fixed host-time budget, and prints every
// repetition's raw measurements as one JSON object on the last line of
// stdout. run.py turns them into medians and checks them.
//
//   fleet_bench --workload fleet-durable --seed 1 --seconds 55 [--trace 1]
//               [--out-dir .bench_out] [--tiny]
//
// Per repetition it records host times (set-up, run), the simulated outcomes
// the paper judges adaptation by (request latency against the 2 s bound,
// repair durations), a determinism fingerprint, and per-layer counters read
// from each module's public stats() accessor. With --trace 1 it follows
// every repetition with a traced one, which keeps host-time spans in memory
// (per tenant, so the shard workers never share a buffer); the first traced
// repetition writes them as Chrome trace-event JSON: set-up phases, fixed
// sim-time slices of run_until, and the probe handlers the framework
// installed on GridApp::on_response / on_enqueue, wrapped from outside.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "acme/adl.hpp"
#include "core/fleet.hpp"
#include "core/framework_builder.hpp"
#include "durability/plane.hpp"
#include "repair/engine.hpp"
#include "sim/scenario_registry.hpp"
#include "util/annotations.hpp"

namespace {

using namespace arcadia;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  std::string scenario;
  int tenants = 0;
  double horizon_s = 0.0;
  std::size_t sim_threads = 1;
  bool always_on = false;  ///< compressed Figure 7 schedule (else duty cycle)
  bool durable = false;
  double slice_s = 1.0;  ///< traced run: sim-time per run.slice span
};

Workload make_workload(const std::string& name, bool tiny) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Workload w;
  w.name = name;
  if (name == "fleet-wide") {
    w.scenario = "fleet-64x256";
    w.tenants = tiny ? 4 : 64;
    w.horizon_s = 80.0;
    w.sim_threads = std::min<std::size_t>(4, hw);
    w.always_on = true;
    w.slice_s = 1.0;
  } else if (name == "fleet-durable") {
    w.scenario = "fleet-4x16";
    w.tenants = tiny ? 3 : 32;
    w.horizon_s = tiny ? 120.0 : 720.0;
    w.sim_threads = 1;
    w.durable = true;
    w.slice_s = 10.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (fleet-wide, fleet-durable)");
  }
  return w;
}

core::FleetOptions make_options(const Workload& w, std::uint64_t seed,
                                const std::string& durable_dir) {
  core::FleetOptions opt;
  opt.scenario = w.scenario;
  opt.tenants = w.tenants;
  opt.use_scenario_defaults = false;
  opt.config = sim::scenario_defaults(w.scenario);
  opt.config.seed = seed;
  if (w.always_on) {
    // bench_fleet_scaling's compressed, always-on Figure 7 schedule (stress
    // over 0.3-0.8 of the horizon): every shard carries load the whole run.
    opt.config.quiescent_end = SimTime::seconds(10);
    opt.config.stress_start = SimTime::seconds(w.horizon_s * 0.3);
    opt.config.stress_end = SimTime::seconds(w.horizon_s * 0.8);
    opt.config.fleet.phase_shift = SimTime::seconds(1);
    opt.config.fleet.active_duration = SimTime::zero();
    // A fifth of the paper's normal per-client rate: 256 clients at
    // 0.2 req/s load a tenant's 24 servers to about half, so outside its
    // stress window a tenant answers about 96% of requests within the 2 s
    // bound. The stress phase triples the rate, which overloads the
    // groups, so that the repairs grow them (addServer). The 1 s phase
    // shift lets a third of the tenants commit a repair by the horizon.
    opt.config.normal_rate_hz = 0.2;
    opt.config.stress_rate_hz = 0.6;
  } else {
    // bench_durability's duty cycle: staggered 40 s active windows, hot
    // enough that an active tenant overloads its groups and repairs.
    opt.config.quiescent_end = SimTime::seconds(40);
    opt.config.normal_rate_hz = 2.5;
    opt.config.fleet.phase_shift = SimTime::seconds(30);
    opt.config.fleet.active_duration = SimTime::seconds(40);
  }
  opt.framework.monitoring_qos = true;
  opt.framework.gauge_costs.report_period = SimTime::millis(250);
  opt.framework.check_period = SimTime::seconds(1);
  opt.manager.coalesce_window = SimTime::seconds(1);
  opt.manager.sweep_threads = 1;
  opt.coordinated = true;
  opt.sim_threads = w.sim_threads;
  opt.durability.dir = durable_dir;
  return opt;
}

/// Schedule phase of a sim-time slice, for the traced run's run.slice spans.
std::string slice_phase(const Workload& w, const core::FleetOptions& opt,
                        double from_s, double to_s) {
  const sim::ScenarioConfig& c = opt.config;
  const double shift = c.fleet.phase_shift.as_seconds();
  int busy = 0;
  for (int t = 0; t < w.tenants; ++t) {
    double lo = 0.0, hi = 0.0;
    if (w.always_on) {
      lo = c.stress_start.as_seconds() + shift * t;
      hi = c.stress_end.as_seconds() + shift * t;
    } else {
      lo = c.quiescent_end.as_seconds() + shift * t;
      hi = lo + c.fleet.active_duration.as_seconds();
    }
    if (lo < to_s && from_s < hi) ++busy;
  }
  std::ostringstream s;
  s << (w.always_on ? "stress " : "active ") << busy << "/" << w.tenants;
  return s.str();
}

// ------------------------------------------------------------------ tracing

struct Span {
  const char* name;
  std::int64_t ts_ns;
  std::int64_t dur_ns;
  std::uint32_t tid;
  std::string args;  ///< pre-rendered JSON object body, may be empty
};

/// Repetitions a run makes however short its budget.
constexpr std::size_t kMinReps = 3;

/// Set-up-only samples taken after each repetition.
constexpr std::size_t kSetupOnlyPerRound = 2;

/// Set-up samples a run aims for (repetitions plus set-up-only rounds).
constexpr std::size_t kSetupSamples = 30;

/// Spans kept in the trace file per tenant; probe_s still sums every call.
constexpr std::size_t kProbeSpansKept = 2000;

/// Per-tenant observation state. Only the tenant's own shard touches it
/// during a window, so it needs no lock.
struct TenantTap {
  // Request accounting (every repetition), indexed by request id. NaN
  // creation time: not yet seen at the queue machine; NaN latency:
  // unanswered.
  std::vector<double> created_s;
  std::vector<double> latency_s;
  std::uint64_t answered = 0;
  std::uint64_t probe_calls = 0;
  // Tracing (traced repetition only).
  bool traced = false;
  Clock::time_point origin;
  std::uint32_t tid = 0;
  std::uint32_t slice = 0;  ///< run.slice the tenant's window belongs to
  std::vector<Span> spans;
  std::uint64_t probe_spans = 0;
  double probe_s = 0.0;
};

/// Size the per-request vectors for the requests a tenant can issue by the
/// horizon, so they are allocated once rather than grown by doubling.
void reserve_requests(TenantTap& tap, const core::FleetOptions& opt,
                      std::size_t clients, double horizon_s) {
  const sim::ScenarioConfig& c = opt.config;
  const double active = c.fleet.active_duration.as_seconds();
  const double rate = std::max(c.normal_rate_hz, c.stress_rate_hz);
  // Arrivals are Poisson: allow a few standard deviations over the mean.
  const double mean = rate * static_cast<double>(clients) *
                      (active > 0.0 ? std::min(active, horizon_s) : horizon_s);
  const auto n = static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean) + 64.0);
  tap.created_s.reserve(n);
  tap.latency_s.reserve(n);
}

void see_request(TenantTap& tap, const sim::Request& req) {
  if (req.id >= tap.created_s.size()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    tap.created_s.resize(req.id + 1, nan);
    tap.latency_s.resize(req.id + 1, nan);
  }
  tap.created_s[req.id] = req.created.as_seconds();
}

void mark_answered(TenantTap& tap, const sim::Request& req) {
  see_request(tap, req);
  tap.latency_s[req.id] = req.latency().as_seconds();
  ++tap.answered;
}

std::size_t tap_bytes(const TenantTap& tap) {
  return (tap.created_s.capacity() + tap.latency_s.capacity()) *
             sizeof(double) +
         tap.spans.capacity() * sizeof(Span);
}

void record_probe_span(TenantTap& tap, const char* hook, Clock::time_point t0,
                       Clock::time_point t1) {
  tap.probe_s += seconds_between(t0, t1);
  ++tap.probe_spans;
  if (tap.spans.size() < kProbeSpansKept) {
    tap.spans.push_back(Span{"monitor.probe", nanos(t0 - tap.origin),
                             nanos(t1 - t0), tap.tid,
                             std::string("\"hook\":\"") + hook +
                                 "\",\"slice\":" + std::to_string(tap.slice)});
  }
}

/// Wrap the probe handlers the framework chained onto the tenant's GridApp
/// hooks: the benchmark observes every request, and (traced) times the
/// framework's own handlers from outside.
void install_taps(core::FleetTenant& tenant, TenantTap& tap) {
  sim::GridApp& app = *tenant.testbed.app;
  auto inner_response = app.on_response;
  app.on_response = [&tap, inner_response](const sim::Request& req) {
    mark_answered(tap, req);
    if (!inner_response) return;
    ++tap.probe_calls;
    if (!tap.traced) {
      inner_response(req);
      return;
    }
    const auto t0 = Clock::now();
    inner_response(req);
    record_probe_span(tap, "on_response", t0, Clock::now());
  };
  auto inner_enqueue = app.on_enqueue;
  app.on_enqueue = [&tap, inner_enqueue](const sim::Request& req,
                                         sim::GroupIdx g) {
    see_request(tap, req);
    if (!inner_enqueue) return;
    ++tap.probe_calls;
    if (!tap.traced) {
      inner_enqueue(req, g);
      return;
    }
    const auto t0 = Clock::now();
    inner_enqueue(req, g);
    record_probe_span(tap, "on_enqueue", t0, Clock::now());
  };
}

// ----------------------------------------------------------------- results

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream s;
  s << std::setprecision(17) << v;
  return s.str();
}

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  // Nearest-rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct RepResult {
  double build_s = 0.0;
  double start_s = 0.0;
  double run_s = 0.0;
  double sweep_s = 0.0;  ///< FleetStats::sweep_wall_s
  double plane_s = 0.0;  ///< DurabilityPlane::wall_s()
  std::uint64_t fingerprint = 0;
  /// Deterministic outputs: simulated outcomes and per-layer counts. Equal
  /// across repetitions of one workload/seed, traced or not.
  std::map<std::string, double> sim;
  std::map<std::string, double> counts;
  std::uint64_t issued = 0;
  std::uint64_t lost = 0;  ///< issued - completed - outstanding, all tenants
  std::size_t harness_bytes = 0;  ///< the benchmark's own per-request state
  std::vector<std::string> failures;
  // Traced repetition only.
  double probe_s = 0.0;
  std::uint64_t probe_spans = 0;
};

/// FNV-1a over every tenant's repair sequence and printed model (the
/// bench_fleet_scaling fingerprint): equal iff the runs made the same
/// repairs at the same sim-times and left the same architecture behind.
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

/// Read the simulated outcomes and every layer's public counters.
void collect(const Workload& w, const core::FleetOptions& opt,
             core::Fleet& fleet, sim::Simulator& control,
             std::vector<TenantTap>& taps, RepResult& r) {
  const double horizon = w.horizon_s;
  const double max_latency = opt.config.thresholds.max_latency.as_seconds();
  // Requests issued by then had the full latency bound to be answered in.
  const double window_end = horizon - max_latency;

  std::vector<double> latencies;
  std::uint64_t considered = 0, missed = 0, answered = 0, in_transit = 0,
                censored = 0;
  std::vector<double> repair_durations;
  std::uint64_t committed = 0, aborted = 0;
  std::map<std::string, double>& c = r.counts;
  auto add = [&c](const std::string& key, double v) { c[key] += v; };

  for (std::size_t t = 0; t < fleet.tenant_count(); ++t) {
    core::FleetTenant& tenant = fleet.tenant(t);
    util::SerialLane in_lane(tenant.lane());
    TenantTap& tap = taps[t];
    const sim::GridApp& app = *tenant.testbed.app;

    // -- requests
    std::uint64_t outstanding = 0;
    for (std::size_t k = 0; k < app.client_count(); ++k) {
      outstanding += app.outstanding_requests(static_cast<sim::ClientIdx>(k));
    }
    const std::uint64_t issued = app.total_issued();
    const std::uint64_t completed = app.total_completed();
    r.issued += issued;
    if (issued != completed + outstanding) {
      r.failures.push_back(tenant.name + ": issued " + std::to_string(issued) +
                           " != completed " + std::to_string(completed) +
                           " + outstanding " + std::to_string(outstanding));
      if (issued > completed + outstanding) {
        r.lost += issued - completed - outstanding;
      }
    }
    if (tap.answered != completed) {
      r.failures.push_back(tenant.name + ": on_response saw " +
                           std::to_string(tap.answered) +
                           " responses, app completed " +
                           std::to_string(completed));
    }
    answered += tap.answered;
    // Every request issued by window_end counts, answered or not. One still
    // unanswered at the horizon is censored: its latency so far, horizon -
    // created, stands in for the latency it will have. So a change that
    // drains a backlog lowers the percentiles rather than raising them.
    for (std::uint64_t id = 0; id < issued; ++id) {
      const bool seen =
          id < tap.created_s.size() && !std::isnan(tap.created_s[id]);
      const bool done =
          id < tap.latency_s.size() && !std::isnan(tap.latency_s[id]);
      double latency = 0.0;
      if (!seen) {
        // Still in transit to the queue machine, so its creation time is
        // not visible from outside: count it as a miss with the largest
        // latency it can have rather than guess.
        ++in_transit;
        latency = horizon;
      } else if (tap.created_s[id] > window_end) {
        continue;
      } else if (done) {
        latency = tap.latency_s[id];
      } else {
        ++censored;
        latency = horizon - tap.created_s[id];
      }
      ++considered;
      latencies.push_back(latency);
      if (!done || latency > max_latency) ++missed;
    }

    // -- repairs
    core::Framework& fw = *tenant.framework;
    for (const repair::RepairRecord& rec : fw.engine().records()) {
      if (!rec.finished) continue;  // still in flight at the horizon
      if (rec.aborted) {
        ++aborted;  // includes committed plans rolled back mid-flight
      } else if (rec.committed) {
        ++committed;
        repair_durations.push_back(rec.duration().as_seconds());
      }
    }

    // -- per-layer counters (public stats() accessors)
    const sim::FlowNetworkStats& net = tenant.testbed.net->stats();
    add("sim.net.reallocations", static_cast<double>(net.reallocations));
    add("sim.net.waterfill_rounds", static_cast<double>(net.waterfill_rounds));
    add("sim.net.transfers", static_cast<double>(net.transfers_started));

    const events::BusStats& pb = fw.probe_bus().stats();
    const events::BusStats& gb = fw.gauge_bus().stats();
    add("events.probe.published", static_cast<double>(pb.published));
    add("events.probe.delivered", static_cast<double>(pb.delivered));
    add("events.probe.dropped", static_cast<double>(pb.dropped_no_match));
    add("events.gauge.published", static_cast<double>(gb.published));
    add("events.gauge.delivered", static_cast<double>(gb.delivered));
    add("events.gauge.dropped", static_cast<double>(gb.dropped_no_match));

    const monitor::GaugeManagerStats& gm = fw.gauges().stats();
    add("monitor.reports", static_cast<double>(gm.reports));
    add("monitor.reports_suppressed",
        static_cast<double>(gm.reports_suppressed));
    add("monitor.redeploys", static_cast<double>(gm.redeploys));
    add("monitor.probe_calls", static_cast<double>(tap.probe_calls));

    const repair::RepairStats& rs = fw.engine().stats();
    add("repair.committed", static_cast<double>(rs.committed));
    add("repair.plan_steps", static_cast<double>(rs.plan_steps_executed));
    add("repair.plan_steps_merged", static_cast<double>(rs.plan_steps_merged));
    add("repair.ops_retried", static_cast<double>(rs.ops_retried));
    const auto& cs = fw.manager().checker().check_stats();
    add("repair.check_evaluations", static_cast<double>(cs.evaluations));
    add("repair.check_cache_hits", static_cast<double>(cs.cache_hits));
    add("runtime.ops", static_cast<double>(fw.environment().stats().ops));
    const remos::RemosStats& rm = fw.remos().stats();
    add("remos.queries", static_cast<double>(rm.queries));
    add("remos.cache_hits", static_cast<double>(rm.cache_hits));

    r.probe_s += tap.probe_s;
    r.probe_spans += tap.probe_spans;
  }

  // -- kernel
  double events = static_cast<double>(control.executed());
  if (sim::SimCoordinator* coord = fleet.coordinator()) {
    const sim::SimCoordinatorStats cs = coord->stats();
    events += static_cast<double>(cs.shard_events);
    c["sim.windows"] = static_cast<double>(cs.rounds);
    c["sim.mail"] = static_cast<double>(cs.mail_delivered);
    double max_ev = 0.0, sum_ev = 0.0;
    for (std::size_t i = 0; i < coord->shard_count(); ++i) {
      const double ev = static_cast<double>(coord->shard(i).events());
      max_ev = std::max(max_ev, ev);
      sum_ev += ev;
    }
    const double mean_ev = sum_ev / static_cast<double>(coord->shard_count());
    c["sim.shard_imbalance"] = ratio(max_ev, mean_ev);
  }
  c["sim.events"] = events;
  c["sim.net.rounds_per_realloc"] =
      ratio(c["sim.net.waterfill_rounds"], c["sim.net.reallocations"]);
  c["sim.net.reallocs_per_transfer"] =
      ratio(c["sim.net.reallocations"], c["sim.net.transfers"]);
  c["events.delivery_ratio"] =
      ratio(c["events.probe.delivered"] + c["events.gauge.delivered"],
            c["events.probe.published"] + c["events.gauge.published"]);
  c["repair.check_hit_ratio"] =
      ratio(c["repair.check_cache_hits"],
            c["repair.check_cache_hits"] + c["repair.check_evaluations"]);
  c["remos.hit_ratio"] = ratio(c["remos.cache_hits"], c["remos.queries"]);

  // -- control plane
  if (core::FleetManager* mgr = fleet.manager()) {
    const core::FleetStats& fs = mgr->stats();
    std::uint64_t enq = 0, coalesced = 0, applied = 0;
    for (std::size_t s = 0; s < mgr->shard_count(); ++s) {
      const core::FleetShardStats& ss = mgr->shard_stats(s);
      enq += ss.reports_enqueued;
      coalesced += ss.reports_coalesced;
      applied += ss.reports_applied;
    }
    c["core.reports_enqueued"] = static_cast<double>(enq);
    c["core.reports_applied"] = static_cast<double>(applied);
    c["core.coalesce_ratio"] =
        ratio(static_cast<double>(coalesced), static_cast<double>(enq));
    c["core.sweeps"] = static_cast<double>(fs.sweep_rounds);
    c["core.sweep_skip_ratio"] =
        ratio(static_cast<double>(fs.shard_skips),
              static_cast<double>(fs.shard_skips + fs.shard_sweeps));
    r.sweep_s = fs.sweep_wall_s;
  }

  // -- durability
  if (durability::DurabilityPlane* plane = fleet.durability_plane()) {
    c["durability.journal_bytes"] = static_cast<double>(plane->journal_bytes());
    c["durability.records"] = static_cast<double>(plane->records_written());
    c["durability.bytes_per_sim_s"] =
        static_cast<double>(plane->journal_bytes()) / horizon;
    r.plane_s = plane->wall_s();
  }

  // -- simulated outcomes
  r.sim["requests_answered"] = static_cast<double>(answered);
  r.sim["requests_in_window"] = static_cast<double>(considered);
  r.sim["requests_missed"] = static_cast<double>(missed);
  r.sim["requests_in_transit"] = static_cast<double>(in_transit);
  r.sim["requests_censored"] = static_cast<double>(censored);
  r.sim["req_p50_s"] = quantile(latencies, 0.50);
  r.sim["req_p99_s"] = quantile(latencies, 0.99);
  r.sim["req_miss_frac"] =
      ratio(static_cast<double>(missed), static_cast<double>(considered));
  r.sim["repairs_committed"] = static_cast<double>(committed);
  r.sim["repairs_aborted"] = static_cast<double>(aborted);
  r.sim["repair_p50_s"] = quantile(repair_durations, 0.50);
  // Attempts per committed repair = 1 / (1 - abort share). Unlike the abort
  // share it never reads 0, also on workloads where every repair commits.
  r.sim["repair_attempts_per_commit"] =
      ratio(static_cast<double>(committed + aborted),
            static_cast<double>(committed));
  r.fingerprint = fingerprint_fleet(fleet);
}

void wipe_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) throw std::runtime_error("cannot wipe " + dir + ": " + ec.message());
}

/// One repetition: fresh simulator and fleet, set up, run to the horizon,
/// collect. `spans` non-null makes it the traced repetition.
RepResult run_rep(const Workload& w, std::uint64_t seed,
                  const std::string& durable_dir, std::vector<Span>* spans,
                  Clock::time_point origin) {
  if (!durable_dir.empty()) wipe_dir(durable_dir);
  const core::FleetOptions opt = make_options(w, seed, durable_dir);
  RepResult r;
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b,
                  std::string args) {
    if (spans) {
      spans->push_back(
          Span{name, nanos(a - origin), nanos(b - a), 0, std::move(args)});
    }
  };

  // Declared before the fleet: the hooks installed on its tenants point
  // into `taps`, so it must outlive them.
  std::vector<TenantTap> taps(static_cast<std::size_t>(w.tenants));
  sim::Simulator control;
  const auto t0 = Clock::now();
  std::unique_ptr<core::Fleet> fleet =
      core::FrameworkBuilder::build_fleet(control, opt);
  const auto t1 = Clock::now();
  fleet->start();
  const auto t2 = Clock::now();
  r.build_s = seconds_between(t0, t1);
  r.start_s = seconds_between(t1, t2);
  span("setup.build", t0, t1, "");
  span("setup.start", t1, t2, "");

  if (fleet->tenant_count() != taps.size()) {
    throw std::runtime_error(
        "fleet built " + std::to_string(fleet->tenant_count()) +
        " tenants, expected " + std::to_string(taps.size()));
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    taps[t].traced = spans != nullptr;
    taps[t].origin = origin;
    taps[t].tid = static_cast<std::uint32_t>(t + 1);
    core::FleetTenant& tenant = fleet->tenant(t);
    util::SerialLane in_lane(tenant.lane());
    reserve_requests(taps[t], opt, tenant.testbed.app->client_count(),
                     w.horizon_s);
    install_taps(tenant, taps[t]);
  }

  const SimTime horizon = SimTime::seconds(w.horizon_s);
  if (!spans) {
    const auto a = Clock::now();
    fleet->run_until(horizon);
    r.run_s = seconds_between(a, Clock::now());
  } else {
    const auto a = Clock::now();
    const int slices =
        static_cast<int>(std::ceil(w.horizon_s / w.slice_s - 1e-9));
    for (int k = 0; k < slices; ++k) {
      const double from = w.slice_s * k;
      const double to = std::min(w.horizon_s, w.slice_s * (k + 1));
      // Written between windows, read by the shard workers inside the next
      // one: the coordinator's round hand-off orders the two.
      for (TenantTap& tap : taps) tap.slice = static_cast<std::uint32_t>(k);
      const auto s0 = Clock::now();
      const std::uint64_t ran = fleet->run_until(SimTime::seconds(to));
      const auto s1 = Clock::now();
      std::ostringstream args;
      args << "\"slice\":" << k << ",\"sim_from_s\":" << from
           << ",\"sim_to_s\":" << to
           << ",\"phase\":" << json_string(slice_phase(w, opt, from, to))
           << ",\"events\":" << ran;
      span("run.slice", s0, s1, args.str());
    }
    r.run_s = seconds_between(a, Clock::now());
  }

  collect(w, opt, *fleet, control, taps, r);
  for (const TenantTap& tap : taps) r.harness_bytes += tap_bytes(tap);
  if (spans) {
    for (TenantTap& tap : taps) {
      for (Span& s : tap.spans) spans->push_back(std::move(s));
    }
  }
  return r;
}

/// Set-up alone (build_fleet + start, then tear down), timed like a
/// repetition's set-up.
double setup_once(const Workload& w, std::uint64_t seed,
                  const std::string& durable_dir) {
  if (!durable_dir.empty()) wipe_dir(durable_dir);
  const core::FleetOptions opt = make_options(w, seed, durable_dir);
  sim::Simulator control;
  const auto t0 = Clock::now();
  std::unique_ptr<core::Fleet> fleet =
      core::FrameworkBuilder::build_fleet(control, opt);
  fleet->start();
  return seconds_between(t0, Clock::now());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void write_trace(const std::string& path, const Workload& w,
                 std::uint64_t seed, const std::vector<Span>& spans,
                 const RepResult& traced, std::size_t tenants) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
      << json_string(w.name) << ",\"seed\":" << seed
      << ",\"horizon_sim_s\":" << w.horizon_s
      << ",\"sim_threads\":" << w.sim_threads
      << ",\"run_s\":" << json_number(traced.run_s)
      << ",\"core.sweep_s\":" << json_number(traced.sweep_s)
      << ",\"durability.plane_s\":" << json_number(traced.plane_s)
      << ",\"monitor.probe_s\":" << json_number(traced.probe_s)
      << ",\"monitor.probe_spans\":" << traced.probe_spans
      << ",\"probe_spans_kept_per_tenant\":" << kProbeSpansKept
      << "},\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"benchmark\"}}";
  for (std::size_t t = 0; t < tenants; ++t) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << t + 1 << ",\"args\":{\"name\":\"tenant " << t << "\"}}";
  }
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans) {
    out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.tid << ",\"ts\":" << static_cast<double>(s.ts_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{" << s.args << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write on trace " + path);
}

std::string rep_json(const RepResult& r) {
  std::ostringstream s;
  s << "{\"build_s\":" << json_number(r.build_s)
    << ",\"start_s\":" << json_number(r.start_s)
    << ",\"setup_s\":" << json_number(r.build_s + r.start_s)
    << ",\"run_s\":" << json_number(r.run_s)
    << ",\"sweep_s\":" << json_number(r.sweep_s)
    << ",\"plane_s\":" << json_number(r.plane_s)
    << ",\"probe_s\":" << json_number(r.probe_s)
    << ",\"probe_spans\":" << r.probe_spans << ",\"fingerprint\":\"" << std::hex
    << r.fingerprint << std::dec << "\",\"issued\":" << r.issued
    << ",\"lost\":" << r.lost
    << ",\"harness_mb\":"
    << json_number(static_cast<double>(r.harness_bytes) / (1 << 20))
    << ",\"sim\":{";
  bool first = true;
  for (const auto& [k, v] : r.sim) {
    s << (first ? "" : ",") << json_string(k) << ":" << json_number(v);
    first = false;
  }
  s << "},\"counts\":{";
  first = true;
  for (const auto& [k, v] : r.counts) {
    s << (first ? "" : ",") << json_string(k) << ":" << json_number(v);
    first = false;
  }
  s << "},\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    s << (i ? "," : "") << json_string(r.failures[i]);
  }
  s << "]}";
  return s.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out_dir = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--out-dir") a.out_dir = value();
    else if (flag == "--tiny") a.tiny = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload, args.tiny);
    std::filesystem::create_directories(args.out_dir);
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) +
                             (args.tiny ? "-tiny" : "");
    const std::string durable_dir = w.durable ? stem + ".durable" : "";

    // Rounds of one untraced repetition each, while the next round still
    // fits in the host-time budget. With --trace 1 the repetition is
    // followed by a traced one, so that every traced run_s has an untraced
    // neighbour measured under the same host load; the first traced
    // repetition's spans go to the trace file. A durable workload then also
    // runs with the plane off, which gives the end-to-end durability
    // overhead the same way. Each round ends with set-up-only samples, so
    // that set-up is sampled across the whole run rather than in one
    // stretch of host load; the time left after the last round adds more.
    std::vector<RepResult> reps;
    std::vector<RepResult> traced;
    std::vector<RepResult> plain;
    std::vector<Span> spans;
    std::vector<double> setups;
    const auto begin = Clock::now();
    auto elapsed = [&begin] { return seconds_between(begin, Clock::now()); };
    double round_s = 0.0;
    while (reps.size() < kMinReps || elapsed() + round_s < args.seconds) {
      const auto round_start = Clock::now();
      reps.push_back(run_rep(w, args.seed, durable_dir, nullptr, begin));
      setups.push_back(reps.back().build_s + reps.back().start_s);
      std::cerr << "fleet_bench: " << w.name << " rep " << reps.size()
                << ": setup " << setups.back() << " s, run "
                << reps.back().run_s << " s\n";
      if (args.trace) {
        std::vector<Span> later;
        traced.push_back(run_rep(w, args.seed, durable_dir,
                                 traced.empty() ? &spans : &later,
                                 Clock::now()));
        if (w.durable) {
          plain.push_back(run_rep(w, args.seed, "", nullptr, begin));
        }
      }
      for (std::size_t k = 0; k < kSetupOnlyPerRound; ++k) {
        setups.push_back(setup_once(w, args.seed, durable_dir));
      }
      round_s = seconds_between(round_start, Clock::now());
    }
    while (setups.size() < kSetupSamples && elapsed() < args.seconds) {
      setups.push_back(setup_once(w, args.seed, durable_dir));
    }

    std::string trace_path;
    if (args.trace) {
      trace_path = stem + ".trace.json";
      write_trace(trace_path, w, args.seed, spans, traced.front(),
                  static_cast<std::size_t>(w.tenants));
    }
    if (!durable_dir.empty()) wipe_dir(durable_dir);

    std::cout << "{\"workload\":" << json_string(w.name)
              << ",\"seed\":" << args.seed << ",\"tiny\":"
              << (args.tiny ? "true" : "false")
              << ",\"tenants\":" << w.tenants
              << ",\"horizon_sim_s\":" << json_number(w.horizon_s)
              << ",\"sim_threads\":" << w.sim_threads
              << ",\"peak_rss_mb\":" << json_number(peak_rss_mb())
              << ",\"trace_file\":" << json_string(trace_path)
              << ",\"setups\":[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      std::cout << (i ? "," : "") << json_number(setups[i]);
    }
    std::cout << "],\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      std::cout << (i ? "," : "") << rep_json(reps[i]);
    }
    std::cout << "],\"traced\":[";
    for (std::size_t i = 0; i < traced.size(); ++i) {
      std::cout << (i ? "," : "") << rep_json(traced[i]);
    }
    std::cout << "],\"plain\":[";
    for (std::size_t i = 0; i < plain.size(); ++i) {
      std::cout << (i ? "," : "") << rep_json(plain[i]);
    }
    std::cout << "]}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fleet_bench: error: " << e.what() << "\n";
    return 2;
  }
}
