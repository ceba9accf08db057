// perfbench/src/serve.cpp — serve-mixed: an in-process serve::server on a
// Unix socket, serving the analytics-pipeline hypergraph to independent
// users.
//
// Load is an open loop: one generator thread sends requests at Poisson
// arrival times of a fixed rate, pipelined over k_serve_connections, and each
// connection's replies (out of order, matched by request_id) are read by
// its own receiver thread.  Every latency runs from the request's due time,
// so a stall in the generator or the server is charged to every request it
// delays, and the generator's own lateness is reported.  The protocol, the
// dispatcher queue and the implicit s-line kernels do the work; no s-line
// graph is materialized.
#include <future>
#include <thread>

#include "common.hpp"

namespace pb {
namespace {

namespace sv = nw::hypergraph::serve;

constexpr std::uint32_t k_s            = 2;  ///< s of the interactive queries
constexpr std::uint32_t k_components_s = 8;  ///< s of the whole-graph s_components
/// Share of a traced run's own part (after the open-loop phases) spent on
/// the sequential sweep; the rest runs the full mix at rate_full for
/// loadgen.late_p99_ms and dispatch_metrics.
constexpr double k_sweep_share = 0.5;
/// Requests per slice of a phase when its p99 is taken (latency_sliced).
constexpr std::size_t k_tail_slice = 100;
/// Share of a traced run given to the open-loop phases that also run
/// untraced; the rest goes to the sweeps and the full-mix load.
constexpr double k_open_share = 0.5;

const sv::opcode k_ops[]      = {sv::opcode::stats, sv::opcode::neighbors, sv::opcode::bfs,
                                 sv::opcode::s_distance, sv::opcode::s_components};
const char* const k_op_names[] = {"stats", "neighbors", "bfs", "s_distance", "s_components"};
constexpr int     k_num_ops    = 5;

struct request {
  double                    due_ms = 0;  ///< offset from the phase start
  int                       op     = 0;  ///< index into k_ops
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> make_payload(int op, std::size_t ne, nw::xoshiro256ss& rng) {
  switch (k_ops[op]) {
    case sv::opcode::stats: return sv::encode(sv::stats_request{0});
    case sv::opcode::neighbors: return sv::encode(sv::neighbors_request{0, k_s, rng.bounded(ne)});
    case sv::opcode::bfs: return sv::encode(sv::bfs_request{0, rng.bounded(ne)});
    case sv::opcode::s_distance:
      return sv::encode(sv::s_distance_request{0, k_s, rng.bounded(ne), rng.bounded(ne)});
    default: return sv::encode(sv::s_components_request{0, k_components_s});
  }
}

/// Draw one interactive opcode: stats 50%, neighbors 45%, bfs 5%.  The
/// weights are an assumption, not taken from a measured trace (README).
int pick_op(nw::xoshiro256ss& rng) {
  const auto x = rng.bounded(100);
  return x < 50 ? 0 : x < 95 ? 1 : 2;
}

/// Where the whole-graph requests go: every `distance_every`-th request is
/// an s_distance and every `components_every`-th an s_components (0 = none).
/// Either can cost ~100 bfs.  A fixed cadence keeps their count per run
/// equal, and spaces them so two never hold both workers at the nominal
/// rate; random draws made the tail a matter of whether two overlapped.
struct cadence {
  std::size_t distance_every   = 0;
  std::size_t components_every = 0;
};

/// Request number `n` (from 1) of a phase, due `due_ms` after its start.
request make_request(std::size_t n, double due_ms, cadence heavy, std::size_t ne,
                     nw::xoshiro256ss& rng) {
  request q;
  q.due_ms = due_ms;
  if (heavy.components_every != 0 && n % heavy.components_every == 0) {
    q.op = 4;
  } else if (heavy.distance_every != 0 && n % heavy.distance_every == heavy.distance_every / 2) {
    q.op = 3;
  } else {
    q.op = pick_op(rng);
  }
  q.payload = make_payload(q.op, ne, rng);
  return q;
}

/// Poisson arrivals at `rate` per second for `seconds`.
std::vector<request> make_schedule(double rate, double seconds, cadence heavy, std::size_t ne,
                                   nw::xoshiro256ss& rng) {
  std::vector<request> out;
  double               t = 0;
  for (;;) {
    const double u = (static_cast<double>(rng.bounded(1u << 30)) + 0.5) / static_cast<double>(1u << 30);
    t += -std::log(u) / rate * 1000.0;
    if (t >= seconds * 1000.0) break;
    out.push_back(make_request(out.size() + 1, t, heavy, ne, rng));
  }
  return out;
}

/// Exactly `count` interactive requests, all due at once.
std::vector<request> make_batch(std::size_t count, std::size_t ne, nw::xoshiro256ss& rng) {
  std::vector<request> out;
  for (std::size_t n = 1; n <= count; ++n) out.push_back(make_request(n, 0.0, cadence{}, ne, rng));
  return out;
}

struct phase_result {
  std::vector<double> latency_ms;  ///< ok replies, from due time
  std::vector<double> late_ms;     ///< send time minus due time
  std::size_t         backlog = 0;     ///< replies outstanding at the last send
  double              elapsed_ms = 0;  ///< phase start to the last reply
  double              cpu_ms     = 0;  ///< process CPU time, first send to last reply
  std::size_t         failed = 0;
};

/// One open-loop phase.  Every whole-graph request and every request whose
/// index is a multiple of `check_every` has its reply bytes compared with
/// execute_query on the pinned generation, after the phase.
phase_result open_loop(const std::string& addr, const sv::serve_graph& g,
                       const std::vector<request>& plan, std::size_t connections,
                       std::size_t check_every, result& r) {
  const std::size_t n       = plan.size();
  auto              checked = [&](std::size_t i) { return i % check_every == 0 || plan[i].op >= 3; };
  std::vector<std::vector<std::uint8_t>> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    frames[i] = sv::encode_frame(k_ops[plan[i].op], sv::status::ok, i, plan[i].payload);
  }
  std::vector<sv::client> conns(connections);
  for (auto& c : conns) c.connect(addr);

  std::vector<double>                    send_ms(n, 0), recv_ms(n, 0);
  std::vector<sv::status>                st(n, sv::status::internal_error);
  std::vector<std::vector<std::uint8_t>> sampled(n);
  std::vector<std::thread>               receivers;
  std::vector<std::string>               receive_errors(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    const std::size_t expect = n / connections + (c < n % connections ? 1 : 0);
    receivers.emplace_back([&, c, expect] {
      try {
        for (std::size_t k = 0; k < expect; ++k) {
          auto reply = conns[c].recv_reply();
          if (!reply) throw std::runtime_error("server closed the connection");
          const double      t  = now_ms();
          const std::size_t id = reply->request_id;
          if (id >= n || id % connections != c) throw std::runtime_error("reply for an unknown request");
          recv_ms[id] = t;
          st[id]      = reply->st;
          if (checked(id)) sampled[id] = std::move(reply->payload);
        }
      } catch (const std::exception& e) {
        receive_errors[c] = e.what();
      }
    });
  }
  const auto   start    = clock::now();
  const double start_ms = now_ms();
  const double cpu0     = cpu_ms();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double, std::milli>(plan[i].due_ms)));
    send_ms[i] = now_ms();
    conns[i % connections].send_raw(frames[i]);
  }
  for (auto& t : receivers) t.join();

  phase_result out;
  out.cpu_ms = cpu_ms() - cpu0;
  double last_send   = 0, last_recv = 0;
  for (double t : send_ms) last_send = std::max(last_send, t);
  for (std::size_t i = 0; i < n; ++i) {
    const double due = start_ms + plan[i].due_ms;
    out.late_ms.push_back(send_ms[i] - due);
    last_recv = std::max(last_recv, recv_ms[i]);
    if (recv_ms[i] > last_send) ++out.backlog;
    bool ok = st[i] == sv::status::ok;
    if (ok) out.latency_ms.push_back(recv_ms[i] - due);
    if (ok && checked(i)) {
      auto want = sv::execute_query(g, k_ops[plan[i].op], plan[i].payload, sv::deadline_token{});
      ok        = want.st == sv::status::ok && want.payload == sampled[i];
    }
    if (!ok) ++out.failed;
    r.check(ok, std::string("serve: ") + k_op_names[plan[i].op] + " reply " +
                    (st[i] == sv::status::ok ? "differs from execute_query"
                                             : std::string("status ") + sv::status_name(st[i])));
  }
  for (const auto& e : receive_errors) r.check(e.empty(), "serve: receiver: " + e);
  out.elapsed_ms = last_recv - start_ms;
  return out;
}

struct serve_setup {
  std::unique_ptr<NWHypergraph> graph;
  std::unique_ptr<sv::server>   srv;
};

}  // namespace

result run_serve(const options& opt, tracer& tr) {
  result            r;
  const auto        file = opt.path("serve.nwcsr").string();
  const auto        sock = opt.path("serve.sock").string();
  const cadence     full{opt.size("serve.distance_every"), opt.size("serve.components_every")};

  serve_setup s = repeated_setup(r, [&] {
    serve_setup out;
    {
      auto el = friendster_shape(opt.size("social.edges"), opt.seed);
      write_csr_snapshot(file, biadjacency<0>(el), biadjacency<1>(el));
    }
    out.graph = std::make_unique<NWHypergraph>(load_csr_snapshot(file));
    std::filesystem::remove(sock);
    sv::server::options so;
    so.unix_path      = sock;
    so.threads        = k_serve_workers;
    so.queue_capacity = 1u << 16;
    out.srv           = std::make_unique<sv::server>(so);
    out.srv->publish(0, sv::make_serve_graph(*out.graph));
    sv::client c;
    c.connect(out.srv->address());
    auto pong = c.ping();
    if (!pong || !pong->ok()) throw std::runtime_error("server did not answer ping");
    return out;
  });
  const auto        pinned = s.srv->registry().pin(0);
  const std::size_t ne     = pinned->num_hyperedges();
  r.sizes["hyperedges"]    = ne;
  r.sizes["hypernodes"]    = pinned->num_hypernodes();
  r.sizes["incidences"]    = pinned->num_incidences();
  r.sizes["file_bytes"]    = std::filesystem::file_size(file);

  nw::xoshiro256ss  rng(opt.seed * 0x9e3779b97f4a7c15ull + 11);
  const std::size_t check_every = opt.size("serve.check_every");
  const std::string addr        = s.srv->address();
  auto              run_plan    = [&](const std::vector<request>& plan) {
    return open_loop(addr, *pinned, plan, k_serve_connections, check_every, r);
  };
  // Only the traced run's load phase carries whole-graph requests.  While
  // one runs, a single worker serves everything else, so the tail of any
  // phase that has them follows how long they last on the seed's graph:
  // over ten seeds the p99 of the full mix at 1000/s ranged 3.8-8.3 ms.
  // The open-loop latencies therefore come from the interactive mix.
  auto phase = [&](double rate, double seconds, bool full_mix) {
    return run_plan(make_schedule(rate, seconds, full_mix ? full : cadence{}, ne, rng));
  };
  const double limit = opt.num("serve.p99_limit_ms");

  // The open-loop phases run in both modes; a traced run gives them
  // k_open_share of its time.
  const double open_s = opt.trace ? opt.seconds * k_open_share : opt.seconds;
  {
    phase(opt.num("serve.rate_nominal"), 0.5, false);  // warm-up
    // The two fixed rates alternate in short blocks, so a slow stretch of
    // the host falls on both alike; each block pair is one pass of the
    // steal_meter.
    std::vector<std::vector<double>> nominal, high;
    steal_meter                      stolen;
    const double                     block_s = open_s * opt.num("serve.block_share");
    for (std::size_t b = 0; b < opt.size("serve.blocks"); ++b) {
      stolen.start();
      nominal.push_back(phase(opt.num("serve.rate_nominal"), block_s, false).latency_ms);
      high.push_back(phase(opt.num("serve.rate_high"), block_s, false).latency_ms);
      stolen.stop();
    }
    r.notes["host_steal"] = stolen.log();
    r.latency_sliced("p50_ms", "p99_ms", stolen.kept_groups(std::move(nominal)), k_tail_slice);
    r.latency_sliced("p50_ms.high", "p99_ms.high", stolen.kept_groups(std::move(high)), k_tail_slice);
    // The ladder: the highest fixed rate of interactive traffic whose p99
    // meets the limit with no failure and no growing backlog (more replies
    // outstanding at the last send than arrive within one limit).  Between
    // the last passing and the first failing rung the crossing is
    // interpolated on log scales, so the result moves smoothly instead of
    // jumping a whole rung.
    double      max_rate = 0, prev_rate = 0, prev_p99 = 0;
    std::string ladder_log;
    for (double rate : opt.list("serve.ladder")) {
      auto         rung    = phase(rate, open_s * opt.num("serve.rung_share"), false);
      result       probe;
      probe.latency_sliced("p50", "p99", {rung.latency_ms}, k_tail_slice);
      const double p99     = probe.metrics["p99"].value;
      const bool   backlog = static_cast<double>(rung.backlog) > 1.0 + rate * limit / 1000.0;
      const bool   ok      = rung.failed == 0 && p99 <= limit && !backlog;
      char         buf[128];
      std::snprintf(buf, sizeof buf, "%s%.0f/s p99=%.2fms backlog=%zu%s", ladder_log.empty() ? "" : "; ",
                    rate, p99, rung.backlog, ok ? "" : " (fails)");
      ladder_log += buf;
      if (!ok) {
        if (prev_rate > 0 && p99 > limit && rung.failed == 0 && prev_p99 > 0) {
          const double f = (std::log(limit) - std::log(prev_p99)) / (std::log(p99) - std::log(prev_p99));
          max_rate       = prev_rate * std::pow(rate / prev_rate, std::clamp(f, 0.0, 1.0));
        }
        break;
      }
      max_rate = prev_rate = rate;
      prev_p99 = p99;
    }
    r.set("max_qps", max_rate, "1/s");
    r.notes["max_qps"] = ladder_log;
    // A pass answers a fixed batch of interactive requests offered all at
    // once.  pass_s is the CPU time the process (client and server threads)
    // spends on it: its drain time followed the host's steal, +23% in a
    // run that lost a third of its CPU time.
    std::vector<double> batch_cpu_ms, batch_wall_ms;
    const std::size_t   batch = opt.size("serve.batch_requests");
    for (std::size_t i = 0; i < opt.size("serve.batch_passes"); ++i) {
      const auto done = run_plan(make_batch(batch, ne, rng));
      batch_cpu_ms.push_back(done.cpu_ms);
      batch_wall_ms.push_back(done.elapsed_ms);
    }
    r.set("pass_s", median(batch_cpu_ms) / 1000.0, "s");
    r.notes["pass_s"] = "CPU time to answer " + std::to_string(batch) + " requests offered at once, median of " +
                        std::to_string(batch_cpu_ms.size()) + " batches; median wall time " +
                        std::to_string(median(batch_wall_ms) / 1000.0) + " s";
  }
  if (opt.trace) {
    // Traced run: a sequential sweep sends each sampled request through the
    // three nested entry points — the socket, dispatcher::submit and
    // execute_query — so their differences separate transport and queueing
    // from execution.  Sweeps alternate untraced and traced.
    sv::dispatcher     direct({k_serve_workers, 1u << 16});
    sv::client         c;
    c.connect(addr);
    const std::size_t  per_op = opt.size("serve.sweep_per_op");
    std::vector<double> lat[3][k_num_ops];
    trace_summary       ts;
    std::uint64_t       request_id = 0;
    const double        traced_s   = opt.seconds - open_s;
    const double        t_end      = now_ms() + 1000.0 * traced_s * k_sweep_share;
    // Each traced sweep repeats the requests of the untraced sweep before
    // it: their cost varies a lot (an s_distance between distant endpoints
    // scans most of the graph), so trace.overhead compares equal work.
    std::vector<std::vector<std::uint8_t>> payloads[k_num_ops];
    for (std::size_t sweep = 0; sweep < 4 || now_ms() < t_end; ++sweep) {
      const bool traced = sweep % 2 == 1;
      tr.enabled        = traced;
      for (int op = 0; op < k_num_ops && !traced; ++op) {
        // s_components scans the whole graph; sample it ten times less.
        const std::size_t samples = k_ops[op] == sv::opcode::s_components ? std::max<std::size_t>(1, per_op / 10) : per_op;
        payloads[op].clear();
        for (std::size_t j = 0; j < samples; ++j) payloads[op].push_back(make_payload(op, ne, rng));
      }
      if (traced) ts.obs.start();
      const int    root = tr.begin("pass", "pass");
      const double t0   = now_ms();
      for (int op = 0; op < k_num_ops; ++op) {
        const std::string name = k_op_names[op];
        for (const auto& payload : payloads[op]) {
          ++request_id;
          std::optional<sv::client_reply> via_socket;
          sv::reply_data                  via_dispatch, via_exec;
          const double rtt = timed(tr, ("serve.rtt_ms." + name).c_str(), "serve",
                                   [&] { via_socket = c.call(k_ops[op], payload); }, request_id);
          const double disp = timed(tr, ("serve.dispatch_ms." + name).c_str(), "serve", [&] {
            std::promise<sv::reply_data> done;
            auto                         fut = done.get_future();
            if (!direct.submit(pinned, k_ops[op], payload, sv::deadline_token{},
                               [&done](sv::reply_data d) { done.set_value(std::move(d)); })) {
              via_dispatch.st = sv::status::busy;
              return;
            }
            via_dispatch = fut.get();
          }, request_id);
          const double exec = timed(tr, ("serve.exec_ms." + name).c_str(), "serve", [&] {
            via_exec = sv::execute_query(*pinned, k_ops[op], payload, sv::deadline_token{});
          }, request_id);
          r.check(via_socket && via_socket->ok() && via_exec.st == sv::status::ok &&
                      via_dispatch.st == sv::status::ok && via_socket->payload == via_exec.payload &&
                      via_dispatch.payload == via_exec.payload,
                  "serve: socket, dispatcher and execute_query replies differ for " + name);
          if (!traced) {
            lat[0][op].push_back(rtt);
            lat[1][op].push_back(disp);
            lat[2][op].push_back(exec);
          }
        }
      }
      const double wall = now_ms() - t0;
      tr.end();
      tr.enabled = false;
      if (traced) {
        ts.obs.stop();
        ts.add_pass(tr, root);
      } else {
        ts.untraced_ms.push_back(wall);
      }
    }
    direct.stop();
    ts.report(r, {"serve"});
    report_obs(r, ts.obs, ts.traced_passes);
    // Per-opcode medians at each entry point (from untraced sweeps).
    const char* const level[3] = {"serve.rtt_ms.", "serve.dispatch_ms.", "serve.exec_ms."};
    for (int k = 0; k < 3; ++k) {
      for (int op = 0; op < k_num_ops; ++op) {
        r.set(std::string(level[k]) + k_op_names[op], median(lat[k][op]), "ms");
      }
    }
    auto load = phase(opt.num("serve.rate_full"), traced_s * (1.0 - k_sweep_share), true);
    r.set("loadgen.late_p99_ms", quantile(load.late_ms, tail_q(load.late_ms.size())), "ms");
    const auto m = s.srv->metrics();
    r.set("serve.queue_depth_peak", static_cast<double>(m.queue_depth_peak), "count");
    r.set("serve.rejected_busy", static_cast<double>(m.rejected_busy), "count");
    r.set("serve.deadline_exceeded", static_cast<double>(m.deadline_exceeded), "count");
    r.set("serve.coalesced", static_cast<double>(m.coalesced), "count");
  }
  const auto m = s.srv->metrics();
  r.notes["dispatch_metrics"] = "completed=" + std::to_string(m.completed) +
                                " rejected_busy=" + std::to_string(m.rejected_busy) +
                                " deadline_exceeded=" + std::to_string(m.deadline_exceeded) +
                                " coalesced=" + std::to_string(m.coalesced) +
                                " queue_depth_peak=" + std::to_string(m.queue_depth_peak);
  s.srv->stop();
  std::filesystem::remove(file);
  return r;
}

}  // namespace pb
