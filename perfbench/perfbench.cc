// End-to-end benchmark: one repetition of one workload per process.
//
//   perfbench --workload pingpong|ring_scale|mix_lossy --seed N
//                    [--setup-only] [--trace] [--stderr PATH]
//                    [--spans PATH] [--change NAME]
//
// A repetition builds a fresh simulated testbed, brings up mpi::World on
// every rank, runs the workload as a closed loop (a rank posts its next op
// only when the previous one completed), finalizes, and drains the engine.
// Two clocks are reported and never mixed:
//   wall  setup_s (testbed construction until the last World constructor
//         returns), run_s (from there until Engine::run returns, teardown
//         included), peak_rss_mb (VmHWM of this process);
//   sim   sim_ms (makespan of the measured phase), op_p50_us / op_p99_us
//         (per communication op), goodput_mbps (payload bytes / sim_ms),
//         plus the event count and a digest of every op's completion time.
// run.py repeats this binary in fresh processes and requires the simulated
// numbers of one seed to repeat bit for bit; a fresh process per
// repetition keeps wall time and RSS free of an earlier repetition's heap.
//
// --setup-only reports setup_s and exits as the last World constructor
// returns.
// --trace records spans around each call into the library (testbed
// construction, World construction and finalize, Communicator ops,
// workload::replay_jobs, Engine::run) and the obs registry diff, and adds
// the per-layer metrics plus host probes of fiber switch, event dispatch
// and crc32c. Nothing inside the library is instrumented.
// --change applies one existing public option (see apply_change); the
// known-change check uses it to show the benchmark sees a change.
//
// Output: one JSON object on stdout.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/checksum.h"
#include "obs/metrics.h"
#include "openqs.h"
#include "workload/workload.h"

namespace {

using namespace oqs;
using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- seeds ----

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t mix3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = a * 0x100000001B3ull ^ (b << 21) ^ (c << 42) ^ c;
  splitmix(s);
  return splitmix(s);
}

double unit(std::uint64_t& s) {
  return static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
}

void fill(std::uint64_t key, std::uint8_t* p, std::size_t n) {
  std::uint64_t s = key;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = splitmix(s);
    std::memcpy(p + i, &w, std::min<std::size_t>(8, n - i));
  }
}

bool matches(std::uint64_t key, const std::uint8_t* p, std::size_t n) {
  std::uint64_t s = key;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = splitmix(s);
    if (std::memcmp(p + i, &w, std::min<std::size_t>(8, n - i)) != 0)
      return false;
  }
  return true;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

// ---------------------------------------------------------------- spans ----

// One call into the library, recorded by this file only when tracing.
struct Span {
  const char* name;
  int rank;
  std::int64_t op;
  sim::Time sim_b, sim_e;
  double wall_b, wall_e;  // seconds since the repetition started
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;
  double wall() const { return secs(origin, Clock::now()); }
};

// Times one library call on both clocks. With no log it records the
// simulated duration only (the measured runs need that for op latency).
class Timed {
 public:
  Timed(sim::Engine& e, SpanLog* log, const char* name, int rank,
        std::int64_t op)
      : e_(e), log_(log), name_(name), rank_(rank), op_(op), sim_b_(e.now()) {
    if (log_ != nullptr) wall_b_ = log_->wall();
  }
  // Ends the span; returns its simulated duration in us.
  double end() {
    const sim::Time t = e_.now();
    if (log_ != nullptr)
      log_->spans.push_back({name_, rank_, op_, sim_b_, t, wall_b_, log_->wall()});
    return sim::to_us(t - sim_b_);
  }

 private:
  sim::Engine& e_;
  SpanLog* log_;
  const char* name_;
  int rank_;
  std::int64_t op_;
  sim::Time sim_b_;
  double wall_b_ = 0;
};

// ------------------------------------------------------------- workloads --

struct Shape {
  int ranks = 2;
  int nodes = 2;
  int rails = 1;
  ModelParams params;
  mpi::Options opts;
};

// What one repetition measured. Everything above `wall` is simulated and
// must repeat exactly for a given seed.
struct Rep {
  std::vector<double> op_us;    // per communication op, as the workload defines it
  std::vector<double> p2p_us;   // per point-to-point library call
  std::vector<double> coll_us;  // per collective library call
  double compute_us = 0;        // compute charged by the workload
  std::uint64_t bytes = 0;      // payload delivered in the measured phase
  std::uint64_t ops = 0;        // attempted
  std::uint64_t ops_failed = 0;
  sim::Time phase_b = ~sim::Time{0}, phase_e = 0;  // measured phase
  sim::Time wireup_sim = 0;     // last World constructor return
  sim::Time end_sim = 0;        // Engine::run return
  std::uint64_t digest = kFnvBasis;
  std::uint64_t events = 0;
  std::uint64_t stacks = 0;
  // wall
  double build_s = 0, init_s = 0, run_s = 0, finalize_s = 0, engine_s = 0;

  double sim_ms() const {
    return phase_e > phase_b ? sim::to_ms(phase_e - phase_b) : 0.0;
  }
};

// Per-rank context handed to a workload body.
struct RankCtx {
  mpi::World& w;
  sim::Engine& e;
  SpanLog* log;
  Rep& rep;
  std::uint64_t& digest;  // this rank's fold
};

using Body = std::function<void(RankCtx&)>;

struct Workload {
  Shape shape;
  Body body;
  // Called once after Engine::run (per-job aggregation for the replay).
  std::function<void(Rep&)> finish;
  std::string seed_use;  // what the seed drives, printed with the metrics
};

// The seeded size mix over the Fig. 10 range: 90% eager sends of 8 B..2 KiB
// and 10% pipelined rendezvous of 16 KiB..1 MiB, both log-uniform. Sizes
// are stratified (one draw per 1/n quantile slice, then shuffled), so a
// seed changes every size but barely moves the mix's totals: the run-to-run
// spread stays far below the bounds while the numbers still differ.
std::vector<std::size_t> size_mix(std::uint64_t seed, int n) {
  std::uint64_t s = mix3(seed, 0xA11CE, 1);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double u = (i + unit(s)) / n;
    const double lg = u < 0.9 ? 3.0 + 8.0 * (u / 0.9)
                              : 14.0 + 6.0 * ((u - 0.9) / 0.1);
    sizes[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(std::llround(std::exp2(lg)));
  }
  for (int i = n - 1; i > 0; --i)
    std::swap(sizes[static_cast<std::size_t>(i)],
              sizes[splitmix(s) % static_cast<std::uint64_t>(i + 1)]);
  return sizes;
}

constexpr int kPingpongIters = 2000;

Workload pingpong(std::uint64_t seed) {
  Workload wl;
  wl.shape.ranks = 2;
  wl.shape.nodes = 2;
  wl.seed_use = "size-mix and payload seed " + std::to_string(seed);
  auto sizes = std::make_shared<std::vector<std::size_t>>(
      size_mix(seed, kPingpongIters));
  // An iteration fails if either side saw a bad status or payload.
  auto bad = std::make_shared<std::vector<bool>>(kPingpongIters, false);
  wl.body = [seed, sizes, bad](RankCtx& c) {
    auto& comm = c.w.comm();
    const int me = comm.rank(), peer = 1 - me;
    // Buffers sized once for the largest message, so the heap (and peak
    // RSS) does not depend on the order the seed drew the sizes in.
    const std::size_t max_n = *std::max_element(sizes->begin(), sizes->end());
    std::vector<std::uint8_t> out(max_n), in(max_n);
    // One unmeasured round trip first, so rank skew out of wire-up does
    // not land in the first sample.
    std::uint64_t token = 0;
    if (me == 0) {
      comm.send(&token, sizeof(token), dtype::byte_type(), peer, kPingpongIters);
      comm.recv(&token, sizeof(token), dtype::byte_type(), peer, kPingpongIters);
    } else {
      comm.recv(&token, sizeof(token), dtype::byte_type(), peer, kPingpongIters);
      comm.send(&token, sizeof(token), dtype::byte_type(), peer, kPingpongIters);
    }
    for (int i = 0; i < kPingpongIters; ++i) {
      const std::size_t n = (*sizes)[static_cast<std::size_t>(i)];
      std::fill_n(in.begin(), n, 0);
      const sim::Time t0 = c.e.now();
      bool good = true;
      auto send = [&] {
        fill(mix3(seed, static_cast<std::uint64_t>(i), me), out.data(), n);
        Timed t(c.e, c.log, "mpi.send", me, i);
        good &= comm.send(out.data(), n, dtype::byte_type(), peer, i) ==
                Status::kOk;
        c.rep.p2p_us.push_back(t.end());
      };
      auto recv = [&] {
        Timed t(c.e, c.log, "mpi.recv", me, i);
        good &= comm.recv(in.data(), n, dtype::byte_type(), peer, i) ==
                Status::kOk;
        c.rep.p2p_us.push_back(t.end());
        good &= matches(mix3(seed, static_cast<std::uint64_t>(i), peer),
                        in.data(), n);
      };
      if (me == 0) {
        send();
        recv();
      } else {
        recv();
        send();
      }
      const sim::Time t1 = c.e.now();
      c.digest = fnv(fnv(c.digest, n), t1);
      if (me == 0) {
        // One-way latency: half the round trip.
        c.rep.op_us.push_back(sim::to_us(t1 - t0) / 2.0);
        c.rep.phase_b = std::min(c.rep.phase_b, t0);
        c.rep.phase_e = std::max(c.rep.phase_e, t1);
        ++c.rep.ops;
      }
      c.rep.bytes += n;
      if (!good) (*bad)[static_cast<std::size_t>(i)] = true;
    }
  };
  wl.finish = [bad](Rep& rep) {
    rep.ops_failed = static_cast<std::uint64_t>(std::count(bad->begin(), bad->end(), true));
  };
  return wl;
}

// One op is one rank's round: the ring exchange, the allreduce and the
// barrier. Rounds end together at the barrier, so their latency is stable
// where a per-call latency would depend on which rank waited for which;
// per-call latencies still land in the p2p and collective samples.
constexpr int kRingRanks = 256;
constexpr int kRingRounds = 4;
constexpr std::size_t kRingBytes = 64 * 1024;
constexpr std::size_t kRingSizeJitter = 1024;

Workload ring_scale(std::uint64_t seed) {
  Workload wl;
  wl.shape.ranks = kRingRanks;
  wl.shape.nodes = kRingRanks / 2;
  wl.seed_use = "payload and ring-size seed " + std::to_string(seed);
  wl.body = [seed](RankCtx& c) {
    auto& comm = c.w.comm();
    const int me = comm.rank(), n = comm.size();
    const int next = (me + 1) % n, prev = (me + n - 1) % n;
    std::vector<std::uint8_t> out(kRingBytes + kRingSizeJitter),
        in(kRingBytes + kRingSizeJitter);
    // Not an op: wire-up leaves ranks skewed by milliseconds, and the first
    // collective also builds the communicator's collective state.
    Timed warm(c.e, c.log, "mpi.barrier.first", me, -1);
    comm.barrier();
    warm.end();
    const sim::Time t_start = c.e.now();
    for (int round = 0; round < kRingRounds; ++round) {
      // 64 KiB plus a seeded 0..1023 B, the same on every rank: a seed
      // moves every simulated number a little and symmetrically, without
      // reshuffling which rank waits for which in the collectives.
      const std::size_t bytes =
          kRingBytes +
          mix3(seed, static_cast<std::uint64_t>(round), 7) % kRingSizeJitter;
      fill(mix3(seed, static_cast<std::uint64_t>(me), round + 1000), out.data(),
           bytes);
      Timed op(c.e, c.log, "op.round", me, round);
      Status st = Status::kOk;
      std::size_t got = 0;
      {
        Timed t(c.e, c.log, "mpi.isend", me, round);
        auto sreq = comm.isend(out.data(), bytes, dtype::byte_type(), next,
                               round);
        c.rep.p2p_us.push_back(t.end());
        Timed t2(c.e, c.log, "mpi.irecv", me, round);
        auto rreq = comm.irecv(in.data(), bytes, dtype::byte_type(), prev,
                               round);
        c.rep.p2p_us.push_back(t2.end());
        mpi::RecvStatus rs;
        Timed t3(c.e, c.log, "mpi.wait", me, round);
        sreq.wait();
        rreq.wait(&rs);
        c.rep.p2p_us.push_back(t3.end());
        st = rs.status;
        got = rs.bytes;
      }
      const bool ring_ok =
          st == Status::kOk && got == bytes &&
          matches(mix3(seed, static_cast<std::uint64_t>(prev), round + 1000),
                  in.data(), bytes);
      c.rep.bytes += bytes;

      // 8-byte allreduce with a closed-form sum: sum_r (r+1)(round+1).
      const double mine = static_cast<double>((me + 1) * (round + 1));
      double sum = 0;
      Timed ar(c.e, c.log, "mpi.allreduce", me, round);
      const Status ast = comm.allreduce_sum(&mine, &sum, 1);
      c.rep.coll_us.push_back(ar.end());
      const bool ar_ok = ast == Status::kOk &&
                         sum == static_cast<double>(n) * (n + 1) / 2 * (round + 1);
      c.rep.bytes += sizeof(double);

      Timed bar(c.e, c.log, "mpi.barrier", me, round);
      const Status bst = comm.barrier();
      c.rep.coll_us.push_back(bar.end());
      c.rep.op_us.push_back(op.end());

      ++c.rep.ops;
      c.rep.ops_failed += !(ring_ok && ar_ok && bst == Status::kOk);
      c.digest = fnv(fnv(c.digest, c.e.now()), static_cast<std::uint64_t>(sum));
    }
    c.rep.phase_b = std::min(c.rep.phase_b, t_start);
    c.rep.phase_e = std::max(c.rep.phase_e, c.e.now());
  };
  return wl;
}

constexpr int kMixRanks = 64;
constexpr std::size_t kMixHaloBytes = 16384;
constexpr std::size_t kMixBlockBytes = 4096;

Workload mix_lossy(std::uint64_t seed) {
  Workload wl;
  wl.shape.ranks = kMixRanks;
  wl.shape.nodes = kMixRanks / 2;
  wl.shape.rails = 2;
  wl.shape.params.fault_drop_prob = 0.02;
  wl.shape.params.fault_seed = mix3(seed, 0xFA17, 2);
  wl.shape.opts.elan4.reliability = true;
  wl.shape.opts.elan4.max_data_retries = 50;
  wl.seed_use = "payload seed " + std::to_string(seed) + ", fault seed " +
                std::to_string(wl.shape.params.fault_seed);

  // A 32-rank stencil2d (16 KiB halos) beside a 32-rank all-to-all shuffle
  // (4 KiB blocks): halo exchanges feel the shuffle's congestion.
  const int half = kMixRanks / 2;
  const workload::Grid2 g = workload::factor2(half);
  workload::StencilConfig sc;
  sc.px = g.px;
  sc.py = g.py;
  sc.iters = 20;
  sc.halo_bytes = kMixHaloBytes;
  sc.compute_ns = 20000;
  auto traces = std::make_shared<std::vector<workload::Trace>>();
  traces->push_back(workload::make_stencil(sc));
  traces->push_back(workload::make_shuffle(
      {.ranks = half, .rounds = 10, .bytes_per_pair = kMixBlockBytes, .compute_ns = 5000}));
  auto reports = std::make_shared<std::vector<workload::Report>>();

  wl.body = [seed, traces, reports](RankCtx& c) {
    std::vector<const workload::Trace*> jobs;
    for (const auto& t : *traces) jobs.push_back(&t);
    workload::ReplayOptions ro;
    ro.seed = seed;
    Timed t(c.e, c.log, "workload.replay_jobs", c.w.rank(), 0);
    workload::replay_jobs(c.w, jobs, ro, reports.get());
    t.end();
  };
  wl.finish = [traces, reports](Rep& rep) {
    for (const auto& t : *traces) rep.ops += t.total_ops();
    std::uint64_t replayed = 0, bad = 0;
    for (const workload::Report& r : *reports) {
      rep.op_us.insert(rep.op_us.end(), r.op_us.values().begin(),
                       r.op_us.values().end());
      rep.p2p_us.insert(rep.p2p_us.end(), r.p2p_us.values().begin(),
                        r.p2p_us.values().end());
      rep.coll_us.insert(rep.coll_us.end(), r.coll_us.values().begin(),
                         r.coll_us.values().end());
      for (double x : r.compute_us.values()) rep.compute_us += x;
      rep.bytes += r.bytes_moved;
      replayed += r.ops_replayed;
      bad += r.verify_failures;
      rep.phase_b = std::min(rep.phase_b, r.t_begin);
      rep.phase_e = std::max(rep.phase_e, r.t_end);
      rep.digest = fnv(rep.digest, r.digest());
    }
    rep.ops_failed = bad + (rep.ops - std::min(rep.ops, replayed));
  };
  return wl;
}

// ------------------------------------------------------------- changes ----

// Known changes, each through an existing public option.
bool apply_change(const std::string& name, Shape& s) {
  if (name == "none") return true;
  if (name == "reliability") {  // go-back-N + CRC on every frame
    s.opts.elan4.reliability = true;
    if (s.opts.elan4.max_data_retries < 50) s.opts.elan4.max_data_retries = 50;
  } else if (name == "fast_poll") {  // 4x more host poll iterations
    s.params.host_poll_ns = 20;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------ repetition --

// Build a testbed, run `wl` on it to completion, and measure both clocks.
// `setup_done`, when set, is called with setup_s as the last World
// constructor returns.
Rep run_rep(const Workload& wl, SpanLog* log,
            obs::MetricRegistry::Snapshot* at_setup,
            const std::function<void(double)>& setup_done) {
  Rep rep;
  const Shape& s = wl.shape;
  const Clock::time_point t0 = Clock::now();

  sim::Engine engine;
  Timed build(engine, log, "net.build", -1, 0);
  elan4::QsNet net(engine, s.params, s.nodes, 64, s.rails);
  rte::Runtime rt(engine, net);
  build.end();
  const Clock::time_point t_built = Clock::now();

  int ctor_left = s.ranks;
  Clock::time_point ctor_done{}, fin_b{}, fin_e{};
  bool fin_started = false;
  std::vector<std::uint64_t> digests(static_cast<std::size_t>(s.ranks), kFnvBasis);
  mpi::Options opts = s.opts;
  opts.elan4.rails = s.rails;

  // The rank bodies run inside engine.run() below, so capturing this
  // frame by reference is safe.
  rt.launch(s.ranks, [&](rte::Env& env) {
    Timed init(engine, log, "mpi.World", env.world_index, 0);
    mpi::World w(env, net, opts);
    init.end();
    if (--ctor_left == 0) {
      ctor_done = Clock::now();
      rep.wireup_sim = engine.now();
      if (at_setup != nullptr) *at_setup = obs::metrics().snapshot();
      if (setup_done) setup_done(secs(t0, ctor_done));
    }
    RankCtx ctx{w, engine, log, rep, digests[static_cast<std::size_t>(w.rank())]};
    wl.body(ctx);
    if (!fin_started) {
      fin_started = true;
      fin_b = Clock::now();
    }
    Timed fin(engine, log, "mpi.finalize", w.rank(), 0);
    w.finalize();
    fin.end();
    fin_e = Clock::now();
  });

  const Clock::time_point t_run = Clock::now();
  Timed run(engine, log, "sim.Engine.run", -1, 0);
  rep.end_sim = engine.run();
  run.end();
  const Clock::time_point t_end = Clock::now();

  rep.events = engine.events_executed();
  rep.stacks = engine.stacks_allocated();
  rep.build_s = secs(t0, t_built);
  rep.init_s = secs(t_built, ctor_done);
  rep.run_s = secs(ctor_done, t_end);
  rep.finalize_s = secs(fin_b, fin_e);
  rep.engine_s = secs(t_run, t_end);
  for (std::uint64_t d : digests) rep.digest = fnv(rep.digest, d);
  if (wl.finish) wl.finish(rep);
  return rep;
}

// ---------------------------------------------------------------- probes --

double pct(std::vector<double> v, double p) {
  sim::Samples s;
  for (double x : v) s.add(x);
  return s.percentile(p);
}

// Host ns per plain event dispatch (each callback schedules the next).
double probe_dispatch_ns() {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    sim::Engine e;
    constexpr int kEvents = 200000;
    int left = kEvents;
    std::function<void()> tick = [&] {
      if (--left > 0) e.schedule(1, [&] { tick(); });
    };
    e.schedule(1, [&] { tick(); });
    const auto a = Clock::now();
    e.run();
    trials.push_back(secs(a, Clock::now()) * 1e9 / kEvents);
  }
  return pct(trials, 0.5);
}

// Host ns per fiber sleep/resume round trip: two context switches plus one
// dispatch, the unit of every simulated poll-loop iteration.
double probe_switch_ns() {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    sim::Engine e;
    constexpr int kRounds = 100000;
    e.spawn("probe", [&] {
      for (int i = 0; i < kRounds; ++i) e.sleep(1);
    });
    const auto a = Clock::now();
    e.run();
    trials.push_back(secs(a, Clock::now()) * 1e9 / kRounds);
  }
  return pct(trials, 0.5);
}

// crc32c throughput over the workload's own frame sizes: each message
// split into PTL frames of at most one MTU.
double probe_crc_mbps(const std::vector<std::size_t>& msg_sizes, std::uint32_t mtu) {
  std::vector<std::size_t> frames;
  std::size_t total = 0;
  for (std::size_t n : msg_sizes) {
    for (std::size_t off = 0; off < n; off += mtu) {
      frames.push_back(std::min<std::size_t>(mtu, n - off));
      total += frames.back();
    }
    if (total > (8u << 20)) break;
  }
  std::vector<std::uint8_t> buf(mtu);
  fill(42, buf.data(), buf.size());
  std::vector<double> trials;
  volatile std::uint32_t sink = 0;  // keeps the checksums from being elided
  for (int t = 0; t < 5; ++t) {
    const auto a = Clock::now();
    for (std::size_t f : frames) sink = crc32c(buf.data(), f, sink);
    trials.push_back(static_cast<double>(total) / (secs(a, Clock::now()) * 1e6));
  }
  return pct(trials, 0.5);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::uint64_t count_warn_lines(const std::string& path) {
  std::fflush(stderr);
  std::ifstream f(path);
  std::uint64_t n = 0;
  std::string line;
  while (std::getline(f, line))
    if (line.find(" WARN ") != std::string::npos) ++n;
  return n;
}

// ------------------------------------------------------------------ JSON --

struct Json {
  std::string s = "{";
  void key(const std::string& k) {
    if (s.size() > 1) s += ", ";
    s += "\"" + k + "\": ";
  }
  void num(const std::string& k, double v) {
    key(k);
    char b[64];
    std::snprintf(b, sizeof(b), "%.17g", std::isfinite(v) ? v : 0.0);
    s += b;
  }
  void raw(const std::string& k, const std::string& v) {
    key(k);
    s += v;
  }
  void str(const std::string& k, const std::string& v) { raw(k, "\"" + v + "\""); }
  std::string done() const { return s + "}"; }
};

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof(b), "%016" PRIx64, v);
  return b;
}

std::uint64_t tail_beyond(const std::vector<double>& v, double p99) {
  return static_cast<std::uint64_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }));
}

void write_spans(const std::string& path, const SpanLog& log,
                 const obs::MetricRegistry::Snapshot& setup_diff,
                 const obs::MetricRegistry::Snapshot& run_diff) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& sp : log.spans)
    std::fprintf(f,
                 "{\"name\": \"%s\", \"rank\": %d, \"op\": %" PRId64
                 ", \"sim_b_ns\": %" PRIu64 ", \"sim_e_ns\": %" PRIu64
                 ", \"wall_b_s\": %.9f, \"wall_e_s\": %.9f}\n",
                 sp.name, sp.rank, sp.op, sp.sim_b, sp.sim_e, sp.wall_b, sp.wall_e);
  auto dump = [&](const char* phase, const obs::MetricRegistry::Snapshot& d) {
    for (const auto& [k, v] : d)
      if (v != 0)
        std::fprintf(f, "{\"counter\": \"%s\", \"phase\": \"%s\", \"value\": %" PRIu64 "}\n",
                     k.c_str(), phase, v);
  };
  dump("setup", setup_diff);
  dump("run", run_diff);
  std::fclose(f);
}

// The per-layer metrics of the traced repetition: counter diffs from the
// obs registry, span-derived latencies, and host probes. Grouped by the
// module that owns the work.
std::string layers(const std::string& workload, std::uint64_t seed,
                   const Workload& wl, const Rep& r,
                   const obs::MetricRegistry::Snapshot& d, std::uint64_t warns) {
  Json j;
  auto c = [&](const std::string& k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto put = [&](std::initializer_list<const char*> names) {
    for (const char* k : names) j.num(k, c(k));
  };
  // sim: host cost of simulating = events x ns/event.
  const double events = static_cast<double>(r.events);
  j.num("sim.events", events);
  put({"sim.fiber.park"});
  j.num("sim.park_share", events > 0 ? c("sim.fiber.park") / events : 0);
  j.num("sim.events_per_sim_ms", events / std::max(1e-9, sim::to_ms(r.end_sim)));
  j.num("sim.wall_ns_per_event", r.engine_s * 1e9 / std::max(1.0, events));
  j.num("sim.fibers", c("sim.fiber.spawned"));
  j.num("sim.stacks_allocated", static_cast<double>(r.stacks));
  j.num("sim.probe.switch_ns", probe_switch_ns());
  j.num("sim.probe.dispatch_ns", probe_dispatch_ns());
  // rte / setup
  j.num("net.build_s", r.build_s);
  j.num("mpi.init_s", r.init_s);
  j.num("rte.wireup_sim_ms", sim::to_ms(r.wireup_sim));
  // mpi teardown
  j.num("mpi.finalize_s", r.finalize_s);
  put({"elan4.nic.rx_drops"});
  j.num("base.log.warn_lines", static_cast<double>(warns));
  // mpi / coll
  j.num("mpi.coll_us.p50", pct(r.coll_us, 0.50));
  j.num("mpi.coll_us.p99", pct(r.coll_us, 0.99));
  put({"coll.barrier.calls", "coll.allreduce.calls", "coll.barrier.hier",
       "coll.barrier.nic", "coll.barrier.dissemination", "coll.allreduce.hier",
       "coll.allreduce.nic", "coll.allreduce.recdbl", "coll.allreduce.rsag"});
  // pml / bml
  j.num("mpi.p2p_us.p50", pct(r.p2p_us, 0.50));
  j.num("mpi.p2p_us.p99", pct(r.p2p_us, 0.99));
  put({"pml.send.eager", "pml.send.rendezvous", "pml.match.unexpected_queued",
       "bml.send.pipelined", "bml.recv.striped", "bml.stripe.failovers",
       "bml.pipeline.push_stashed"});
  // ptl
  put({"ptl.frames.handled", "ptl.rdv.started", "ptl.reliability.retransmissions",
       "ptl.reliability.rtx_timeouts", "ptl.reliability.dup_frames",
       "ptl.reliability.acks_sent"});
  const double handled = c("ptl.frames.handled");
  const double rtx = c("ptl.reliability.retransmissions");
  j.num("ptl.frame_yield", handled + rtx > 0 ? handled / (handled + rtx) : 1.0);
  // elan4
  put({"elan4.nic.commands", "elan4.qdma.posted", "elan4.qdma.overflows",
       "elan4.qdma.depth.hiwater", "elan4.rdma.reads", "elan4.rdma.writes",
       "elan4.rdma.tx_bytes", "elan4.mmu.maps"});
  // base: crc32c over the frames this workload puts on the wire.
  std::vector<std::size_t> msgs;
  if (workload == "pingpong") msgs = size_mix(seed, kPingpongIters);
  else if (workload == "ring_scale") msgs.assign(64, kRingBytes);
  else msgs = {kMixHaloBytes, kMixBlockBytes};
  j.num("base.probe.crc32c_mbps", probe_crc_mbps(msgs, wl.shape.params.mtu));
  // workload
  double comm_us = 0;
  for (double x : r.op_us) comm_us += x;
  j.num("workload.ops", static_cast<double>(r.ops));
  j.num("workload.verify_failures", static_cast<double>(r.ops_failed));
  j.num("workload.compute_share",
        r.compute_us + comm_us > 0 ? r.compute_us / (r.compute_us + comm_us) : 0);
  j.num("workload.p2p_us.p99", pct(r.p2p_us, 0.99));
  j.num("workload.coll_us.p99", pct(r.coll_us, 0.99));
  return j.done();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pingpong|ring_scale|mix_lossy "
               "--seed N [--setup-only] [--trace] [--stderr PATH] "
               "[--spans PATH] [--change NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, stderr_path, spans_path, change = "none";
  std::uint64_t seed = 0;
  bool have_seed = false, trace = false, setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") { trace = true; continue; }
    if (a == "--setup-only") { setup_only = true; continue; }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") { seed = std::strtoull(v.c_str(), nullptr, 10); have_seed = true; }
    else if (a == "--stderr") stderr_path = v;
    else if (a == "--spans") spans_path = v;
    else if (a == "--change") change = v;
    else return usage();
  }
  if (!have_seed || (trace && setup_only)) return usage();

  // Library warnings go to a file, fully buffered: terminal I/O must not
  // add noise to run_s, and the traced run counts the WARN lines.
  if (!stderr_path.empty()) {
    const int fd = open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || dup2(fd, 2) < 0) {
      std::perror("perfbench: --stderr");
      return 2;
    }
    close(fd);
    static char buf[1 << 20];
    std::setvbuf(stderr, buf, _IOFBF, sizeof(buf));
  }

  Workload wl;
  if (workload == "pingpong") wl = pingpong(seed);
  else if (workload == "ring_scale") wl = ring_scale(seed);
  else if (workload == "mix_lossy") wl = mix_lossy(seed);
  else return usage();
  if (!apply_change(change, wl.shape)) return usage();

  Json out;
  out.str("workload", workload);
  out.str("seed_use", wl.seed_use);
  out.str("change", change);

  // A set-up-only repetition reports as the last World constructor
  // returns and ends the process there: the run and teardown it skips are
  // measured by the full repetitions.
  std::function<void(double)> setup_done;
  if (setup_only)
    setup_done = [&out](double setup_s) {
      out.num("setup_s", setup_s);
      std::printf("%s\n", out.done().c_str());
      std::fflush(nullptr);
      _exit(0);
    };

  SpanLog log;
  obs::MetricRegistry::Snapshot snap_setup;
  const auto snap0 = obs::metrics().snapshot();
  const Rep r = run_rep(wl, trace ? &log : nullptr,
                        trace ? &snap_setup : nullptr, setup_done);
  const auto snap1 = obs::metrics().snapshot();

  out.num("setup_s", r.build_s + r.init_s);
  out.num("run_s", r.run_s);
  out.num("peak_rss_mb", peak_rss_mb());

  std::vector<std::string> errors;
  if (r.ops_failed != 0) errors.push_back(std::to_string(r.ops_failed) + " ops failed");
  if (r.ops == 0 || r.op_us.empty()) errors.push_back("no ops measured");
  const double p99 = pct(r.op_us, 0.99);
  const std::uint64_t beyond = tail_beyond(r.op_us, p99);
  if (beyond < 10)
    errors.push_back("only " + std::to_string(beyond) + " op samples beyond p99");
  const double sim_ms = r.sim_ms();

  // Simulated clock: exact, compared bit for bit across runs of a seed.
  out.num("sim_ms", sim_ms);
  out.num("op_p50_us", pct(r.op_us, 0.50));
  out.num("op_p99_us", p99);
  out.num("goodput_mbps", sim_ms > 0 ? static_cast<double>(r.bytes) / (sim_ms * 1000.0) : 0);
  out.num("ops", static_cast<double>(r.ops));
  out.num("ops_failed", static_cast<double>(r.ops_failed));
  out.num("op_samples", static_cast<double>(r.op_us.size()));
  out.num("op_samples_beyond_p99", static_cast<double>(beyond));
  out.num("events", static_cast<double>(r.events));
  out.str("digest", hex(r.digest));

  if (trace) {
    const std::uint64_t warns = stderr_path.empty() ? 0 : count_warn_lines(stderr_path);
    const auto d = obs::MetricRegistry::diff(snap0, snap1);
    if (!spans_path.empty())
      write_spans(spans_path, log, obs::MetricRegistry::diff(snap0, snap_setup),
                  obs::MetricRegistry::diff(snap_setup, snap1));
    out.raw("layers", layers(workload, seed, wl, r, d, warns));
  }

  std::string errs = "[";
  for (const std::string& e : errors) errs += (errs.size() > 1 ? ", \"" : "\"") + e + "\"";
  out.raw("errors", errs + "]");
  std::printf("%s\n", out.done().c_str());
  return 0;
}
