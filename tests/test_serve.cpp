/// Tests for the serve subsystem: frame codec hardening (truncated,
/// oversized, version-mismatched, garbage frames), payload round trips,
/// and the in-process server end to end — concurrent clients receiving
/// byte-identical responses to direct driver runs, streamed progress,
/// warm disk-cache hits across a daemon restart, graceful drain, TCP with
/// shared-secret auth, typed cross-version errors, admission shedding
/// (overload + deadline), the connection cap, and the server_stats scrape.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <thread>

#include "serve/client.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_serve_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// read_fn over an in-memory byte buffer (possibly truncated).
read_fn buffer_reader(std::vector<std::uint8_t> bytes) {
  auto state = std::make_shared<std::pair<std::vector<std::uint8_t>,
                                          std::size_t>>(std::move(bytes), 0);
  return [state](void* dst, std::size_t n) -> std::size_t {
    const std::size_t avail = state->first.size() - state->second;
    const std::size_t take = std::min(n, avail);
    if (take > 0) {
      std::memcpy(dst, state->first.data() + state->second, take);
      state->second += take;
    }
    return take;
  };
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 250};
  const auto bytes = encode_frame(msg_type::submit, payload);
  const auto f = read_frame(buffer_reader(bytes));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, msg_type::submit);
  EXPECT_EQ(f->payload, payload);
  // Clean end-of-stream before any header byte is not an error.
  EXPECT_FALSE(read_frame(buffer_reader({})).has_value());
}

TEST(ServeProtocol, TruncatedFramesRejected) {
  const auto bytes =
      encode_frame(msg_type::submit, std::vector<std::uint8_t>(16, 7));
  // Every strict prefix must throw (header or payload truncation).
  for (const std::size_t keep :
       {std::size_t{1}, std::size_t{5}, std::size_t{6}, bytes.size() - 1}) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    EXPECT_THROW(read_frame(buffer_reader(cut)), protocol_error) << keep;
  }
}

TEST(ServeProtocol, OversizedAndGarbageFramesRejected) {
  // Header announcing more than max_frame_payload.
  byte_writer w;
  w.u32(max_frame_payload + 1);
  w.u8(protocol_version);
  w.u8(static_cast<std::uint8_t>(msg_type::submit));
  EXPECT_THROW(read_frame(buffer_reader(w.take())), protocol_error);
  // Implausible version bytes (how arbitrary garbage usually dies): zero and
  // far-future both throw at the frame level.
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{250}}) {
    byte_writer v;
    v.u32(0);
    v.u8(bad);
    v.u8(static_cast<std::uint8_t>(msg_type::ping));
    EXPECT_THROW(read_frame(buffer_reader(v.take())), protocol_error)
        << unsigned{bad};
  }
  // A *plausible* foreign version parses structurally (frozen header) and
  // surfaces in frame::version so the caller can answer with a typed error.
  const auto foreign =
      encode_frame(msg_type::ping, {}, protocol_version + 1);
  const auto f = read_frame(buffer_reader(foreign));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->version, protocol_version + 1);
  EXPECT_EQ(f->type, msg_type::ping);
  // Garbage payload on a valid frame dies in the payload decoder.
  const std::vector<std::uint8_t> junk{0xde, 0xad, 0xbe, 0xef, 0x41, 0x41};
  EXPECT_THROW(decode_synth_request(junk), serialize_error);
  EXPECT_THROW(decode_synth_response(junk), serialize_error);
}

TEST(ServeProtocol, V3PayloadRoundTrips) {
  // Admission fields on the request.
  synth_request req;
  req.spec = "c432";
  req.priority = 210;
  req.deadline_ms = 75.5;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.priority, 210u);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 75.5);

  hello_request hreq;
  hreq.client_name = "test/1";
  const hello_request hback =
      decode_hello_request(encode_hello_request(hreq));
  EXPECT_EQ(hback.client_version, protocol_version);
  EXPECT_EQ(hback.client_name, "test/1");

  hello_reply hr;
  hr.auth_required = true;
  hr.capabilities = {"auth", "server_stats"};
  const hello_reply hrback = decode_hello_reply(encode_hello_reply(hr));
  EXPECT_TRUE(hrback.auth_required);
  EXPECT_EQ(hrback.max_payload, max_frame_payload);
  EXPECT_EQ(hrback.capabilities,
            (std::vector<std::string>{"auth", "server_stats"}));

  const auth_request aback =
      decode_auth_request(encode_auth_request({"s3cret"}));
  EXPECT_EQ(aback.token, "s3cret");

  // Typed errors round trip; unknown future codes degrade to generic.
  const error_reply err =
      decode_error(encode_error(error_code::overloaded, "full"));
  EXPECT_EQ(err.code, error_code::overloaded);
  EXPECT_EQ(err.message, "full");
  EXPECT_EQ(err.retry_after_ms, 0u);
  byte_writer fw;
  fw.u8(200);  // a code this build does not know
  fw.str("from the future");
  const error_reply fut = decode_error(fw.take());
  EXPECT_EQ(fut.code, error_code::generic);
  EXPECT_EQ(fut.message, "from the future");
  EXPECT_EQ(decode_legacy_error(encode_legacy_error("old")), "old");

  server_stats_reply stats;
  stats.status.jobs_submitted = 7;
  stats.cache.full_hits = 3;
  stats.cache.disk_quarantined = 2;
  stats.accepted = 5;
  stats.rejected_overload = 2;
  stats.queue_depth = 1;
  stats.runner_queue_depth = 4;
  stats.io_timeouts = 6;
  stats.fault_fired = 3;
  stats.fault_sites.push_back({"serve.send.reset", 9, 3});
  histogram_snapshot h;
  h.name = "queue_wait";
  h.count = 2;
  h.sum_ms = 3.5;
  h.max_ms = 3.0;
  h.buckets.assign(log_histogram::num_buckets, 0);
  h.buckets[4] = 2;
  stats.histograms.push_back(h);
  const server_stats_reply sback =
      decode_server_stats(encode_server_stats(stats));
  EXPECT_EQ(sback.status.jobs_submitted, 7u);
  EXPECT_EQ(sback.cache.full_hits, 3u);
  EXPECT_EQ(sback.accepted, 5u);
  EXPECT_EQ(sback.rejected_overload, 2u);
  EXPECT_EQ(sback.queue_depth, 1u);
  EXPECT_EQ(sback.runner_queue_depth, 4u);
  EXPECT_EQ(sback.cache.disk_quarantined, 2u);
  EXPECT_EQ(sback.io_timeouts, 6u);
  EXPECT_EQ(sback.fault_fired, 3u);
  ASSERT_EQ(sback.fault_sites.size(), 1u);
  EXPECT_EQ(sback.fault_sites[0].site, "serve.send.reset");
  EXPECT_EQ(sback.fault_sites[0].hits, 9u);
  EXPECT_EQ(sback.fault_sites[0].fired, 3u);
  ASSERT_EQ(sback.histograms.size(), 1u);
  EXPECT_EQ(sback.histograms[0].name, "queue_wait");
  EXPECT_EQ(sback.histograms[0].count, 2u);
  ASSERT_EQ(sback.histograms[0].buckets.size(), log_histogram::num_buckets);
  EXPECT_EQ(sback.histograms[0].buckets[4], 2u);
}

TEST(ServeProtocol, V6TracePayloadRoundTrips) {
  // The trace id rides the tail of synth_request (absent = 0/0 untraced).
  synth_request req;
  req.spec = "c432";
  req.trace_hi = 0x0123456789abcdefull;
  req.trace_lo = 0xfedcba9876543210ull;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.trace_hi, req.trace_hi);
  EXPECT_EQ(back.trace_lo, req.trace_lo);

  const trace_request tback = decode_trace_request(
      encode_trace_request({0x1111ull, 0x2222ull}));
  EXPECT_EQ(tback.trace_hi, 0x1111ull);
  EXPECT_EQ(tback.trace_lo, 0x2222ull);

  trace_reply reply;
  reply.trace_hi = 0x1111ull;
  reply.trace_lo = 0x2222ull;
  reply.spans.push_back({"queue_wait", 100, 25, 3});
  reply.spans.push_back({"stage:optimize", 130, 900, 4});
  reply.spans.push_back({"request_total", 100, 1000, 3});
  const trace_reply rback = decode_trace_reply(encode_trace_reply(reply));
  EXPECT_EQ(rback.trace_hi, reply.trace_hi);
  EXPECT_EQ(rback.trace_lo, reply.trace_lo);
  ASSERT_EQ(rback.spans.size(), 3u);
  EXPECT_EQ(rback.spans[0].name, "queue_wait");
  EXPECT_EQ(rback.spans[0].start_us, 100u);
  EXPECT_EQ(rback.spans[0].dur_us, 25u);
  EXPECT_EQ(rback.spans[0].tid, 3u);
  EXPECT_EQ(rback.spans[1].name, "stage:optimize");
  EXPECT_EQ(rback.spans[2].name, "request_total");

  // Empty reply (unknown id) round trips too.
  const trace_reply eback =
      decode_trace_reply(encode_trace_reply({0x9ull, 0x9ull, {}}));
  EXPECT_EQ(eback.trace_hi, 0x9ull);
  EXPECT_TRUE(eback.spans.empty());

  // v6 flight-recorder counters in the stats scrape.
  server_stats_reply stats;
  stats.trace_spans_recorded = 12345;
  stats.trace_spans_dropped = 67;
  const server_stats_reply sback =
      decode_server_stats(encode_server_stats(stats));
  EXPECT_EQ(sback.trace_spans_recorded, 12345u);
  EXPECT_EQ(sback.trace_spans_dropped, 67u);
}

TEST(ServeProtocol, V7RetainedAndQuarantineCountersRoundTrip) {
  // v7 appends the retained-tier LRU eviction count and the quarantine
  // prune count to both stats codecs.
  cache_stats_reply cache;
  cache.stats.retained_networks = 3;
  cache.stats.retained_evictions = 11;
  cache.stats.disk_quarantine_pruned = 4;
  cache.disk_directory = "/tmp/somewhere";
  const cache_stats_reply cback =
      decode_cache_stats(encode_cache_stats(cache));
  EXPECT_EQ(cback.stats.retained_networks, 3u);
  EXPECT_EQ(cback.stats.retained_evictions, 11u);
  EXPECT_EQ(cback.stats.disk_quarantine_pruned, 4u);
  EXPECT_EQ(cback.disk_directory, "/tmp/somewhere");

  server_stats_reply stats;
  stats.cache.retained_evictions = 7;
  stats.cache.disk_quarantine_pruned = 2;
  const server_stats_reply sback =
      decode_server_stats(encode_server_stats(stats));
  EXPECT_EQ(sback.cache.retained_evictions, 7u);
  EXPECT_EQ(sback.cache.disk_quarantine_pruned, 2u);

  // And both surface in the Prometheus rendering.
  const std::string text = format_server_stats_text(sback);
  EXPECT_NE(text.find("xsfq_eco_retained_evictions_total 7"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("xsfq_cache_disk_quarantine_pruned_total 2"),
            std::string::npos)
      << text;
}

TEST(ServeProtocol, RetryAfterHintRoundTripsAndDegradesPerVersion) {
  // v5 payload carries the hint...
  const error_reply hinted =
      decode_error(encode_error(error_code::overloaded, "full", 1234));
  EXPECT_EQ(hinted.code, error_code::overloaded);
  EXPECT_EQ(hinted.retry_after_ms, 1234u);
  // ...and the one decoder reads every vintage: a v3/v4 payload (no
  // trailing hint) decodes with hint 0 instead of throwing.
  const auto v4_payload = encode_error_for_version(
      4, error_code::overloaded, "full", 1234);
  const error_reply v4_err = decode_error(v4_payload);
  EXPECT_EQ(v4_err.code, error_code::overloaded);
  EXPECT_EQ(v4_err.retry_after_ms, 0u);  // hint dropped for the v4 peer
  EXPECT_LT(v4_payload.size(),
            encode_error(error_code::overloaded, "full", 1234).size());
  // A pre-v3 peer gets the legacy bare-string payload.
  EXPECT_EQ(decode_legacy_error(encode_error_for_version(
                2, error_code::overloaded, "full", 1234)),
            "full");
  // v5+ peers (and the future) get the full layout.
  EXPECT_EQ(decode_error(encode_error_for_version(
                            5, error_code::overloaded, "full", 777))
                .retry_after_ms,
            777u);
}

TEST(ServeProtocol, ConstantTimeEqualCompares) {
  EXPECT_TRUE(constant_time_equal("", ""));
  EXPECT_TRUE(constant_time_equal("topsecret", "topsecret"));
  EXPECT_FALSE(constant_time_equal("topsecret", "topsecrer"));
  EXPECT_FALSE(constant_time_equal("topsecret", "topsecret "));
  EXPECT_FALSE(constant_time_equal("", "x"));
  EXPECT_FALSE(constant_time_equal("x", ""));
}

TEST(ServeProtocol, PayloadRoundTrips) {
  synth_request req;
  req.spec = "adder.bench";
  req.source = circuit_source::bench_text;
  req.source_text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  req.model = "adder";
  req.map.polarity = polarity_mode::positive_outputs;
  req.map.pipeline_stages = 3;
  req.map.reg_style = register_style::pair_boundary;
  req.map.forced_polarities = std::vector<bool>{true, false, true};
  req.validate = true;
  req.want_verilog = true;
  req.stream_progress = true;
  req.flow_jobs = 6;
  const synth_request back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.spec, req.spec);
  EXPECT_EQ(back.source, circuit_source::bench_text);
  EXPECT_EQ(back.source_text, req.source_text);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.map.polarity, req.map.polarity);
  EXPECT_EQ(back.map.pipeline_stages, 3u);
  EXPECT_EQ(back.map.reg_style, register_style::pair_boundary);
  EXPECT_EQ(back.map.forced_polarities, req.map.forced_polarities);
  EXPECT_TRUE(back.validate && back.want_verilog && back.stream_progress);
  EXPECT_FALSE(back.want_dot);
  EXPECT_EQ(back.flow_jobs, 6u);

  synth_response resp;
  resp.ok = true;
  resp.report = "loaded ...\n";
  resp.validate_report = "validate: PASS\n";
  resp.verilog = "module m; endmodule\n";
  resp.timings.push_back({"optimize", 1.5, {}});
  resp.timings[0].counters.nodes = 42;
  resp.total_ms = 2.25;
  resp.served_from_cache = true;
  const synth_response rback =
      decode_synth_response(encode_synth_response(resp));
  EXPECT_TRUE(rback.ok);
  EXPECT_EQ(rback.report, resp.report);
  EXPECT_EQ(rback.verilog, resp.verilog);
  ASSERT_EQ(rback.timings.size(), 1u);
  EXPECT_EQ(rback.timings[0].stage, "optimize");
  EXPECT_EQ(rback.timings[0].counters.nodes, 42u);
  EXPECT_TRUE(rback.served_from_cache);

  progress_event ev{"map", 2, 4, 0.5, {}, true};
  const progress_event eback =
      decode_progress_event(encode_progress_event(ev));
  EXPECT_EQ(eback.stage, "map");
  EXPECT_EQ(eback.index, 2u);
  EXPECT_EQ(eback.total, 4u);
  EXPECT_TRUE(eback.from_cache);
}

// ---------------------------------------------------------------------------
// End to end against an in-process server.
// ---------------------------------------------------------------------------

struct server_fixture {
  temp_dir dir;
  std::unique_ptr<server> srv;

  std::string socket_path() const { return dir.path + "/served.sock"; }
  std::string cache_dir() const { return dir.path + "/cache"; }

  void start(unsigned threads = 2, bool with_disk_cache = true) {
    server_options options;
    options.socket_path = socket_path();
    options.threads = threads;
    if (with_disk_cache) options.cache_dir = cache_dir();
    start_with(options);
  }

  /// Caller-tuned options; socket_path is filled in when left empty.
  void start_with(server_options options) {
    if (options.socket_path.empty() && options.listen_address.empty()) {
      options.socket_path = socket_path();
    }
    srv = std::make_unique<server>(std::move(options));
  }
};

TEST(ServeEndToEnd, SubmitMatchesDirectDriverByteForByte) {
  server_fixture fx;
  fx.start();
  const synth_request req = make_request_for_spec("c432");

  flow::batch_runner local(1);
  const synth_response expected = run_synth(req, local);
  ASSERT_TRUE(expected.ok);

  client cli(fx.socket_path());
  const synth_response served = cli.submit(req);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.report, expected.report);
  EXPECT_EQ(served.validate_report, expected.validate_report);
}

TEST(ServeEndToEnd, ConcurrentClientsGetByteIdenticalResults) {
  server_fixture fx;
  fx.start(/*threads=*/4);

  const std::vector<std::string> circuits{"c432", "c880", "c432", "c1908",
                                          "c880", "c432"};
  // Expected deterministic output, computed through the same driver.
  flow::batch_runner local(2);
  std::vector<std::string> expected_reports;
  for (const auto& name : circuits) {
    const synth_response r = run_synth(make_request_for_spec(name), local);
    ASSERT_TRUE(r.ok) << name;
    expected_reports.push_back(r.report);
  }

  // >= 4 simultaneous clients, each on its own connection (acceptance
  // criterion); repeated circuits also exercise the in-flight dedup and
  // memory-cache tiers under concurrency.
  std::vector<std::thread> threads;
  std::vector<std::string> got(circuits.size());
  std::vector<bool> ok(circuits.size(), false);
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    threads.emplace_back([&, i] {
      client cli(fx.socket_path());
      const synth_response r =
          cli.submit(make_request_for_spec(circuits[i]));
      got[i] = r.report;
      ok[i] = r.ok;
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_TRUE(ok[i]) << circuits[i];
    EXPECT_EQ(got[i], expected_reports[i]) << circuits[i];
  }
  const auto status = fx.srv->status();
  EXPECT_EQ(status.jobs_submitted, circuits.size());
  EXPECT_EQ(status.jobs_completed, circuits.size());
}

TEST(ServeEndToEnd, ProgressEventsStreamPerStage) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  synth_request req = make_request_for_spec("c432");
  req.stream_progress = true;
  std::vector<progress_event> events;
  const synth_response resp =
      cli.submit(req, [&](const progress_event& ev) { events.push_back(ev); });
  ASSERT_TRUE(resp.ok);
  ASSERT_EQ(events.size(), 4u);  // generate, optimize, map, baseline
  EXPECT_EQ(events[0].stage, "generate");
  EXPECT_EQ(events[1].stage, "optimize");
  EXPECT_EQ(events[2].stage, "map");
  EXPECT_EQ(events[3].stage, "baseline");
  for (const auto& ev : events) {
    EXPECT_EQ(ev.total, 4u);
    EXPECT_FALSE(ev.from_cache);  // cold run
  }
  EXPECT_FALSE(resp.served_from_cache);
  // The events mirror flow_result.timings stage for stage.
  ASSERT_EQ(resp.timings.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].stage, resp.timings[i].stage);
  }

  // Warm repeat: same events, now replayed from the cache.
  events.clear();
  const synth_response warm =
      cli.submit(req, [&](const progress_event& ev) { events.push_back(ev); });
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& ev : events) EXPECT_TRUE(ev.from_cache);
  EXPECT_EQ(warm.report, resp.report);
}

TEST(ServeEndToEnd, DiskCacheSurvivesDaemonRestart) {
  server_fixture fx;
  fx.start();
  const synth_request req = make_request_for_spec("c880");
  std::string cold_report;
  {
    client cli(fx.socket_path());
    const synth_response cold = cli.submit(req);
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.served_from_cache);
    cold_report = cold.report;
    const auto stats = cli.cache_stats().stats;
    EXPECT_EQ(stats.disk_writes, 1u);
  }
  fx.srv->stop();  // drain the "daemon"
  fx.start();      // restart over the same cache directory

  client cli(fx.socket_path());
  const synth_response warm = cli.submit(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);
  EXPECT_EQ(warm.report, cold_report);
  const auto reply = cli.cache_stats();
  EXPECT_EQ(reply.stats.disk_hits, 1u);   // served from the disk tier
  EXPECT_EQ(reply.stats.full_hits, 0u);   // memory cache was cold
  EXPECT_EQ(reply.disk_directory, fx.cache_dir());
}

TEST(ServeEndToEnd, BenchTextRequestsServeParsedCircuits) {
  server_fixture fx;
  fx.start();
  // An inline .bench payload, as xsfq_client sends for file specs.
  synth_request req;
  req.spec = "inline.bench";
  req.source = circuit_source::bench_text;
  req.model = "inline";
  req.source_text =
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  client cli(fx.socket_path());
  const synth_response resp = cli.submit(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_NE(resp.report.find("loaded inline.bench: 2 PI, 1 PO"),
            std::string::npos)
      << resp.report;
}

TEST(ServeEndToEnd, FailuresComeBackAsErrorResponsesNotHangs) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());
  synth_request req;
  req.spec = "no_such_benchmark_xyz";
  const synth_response resp = cli.submit(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_FALSE(resp.error.empty());
  // The connection survives a failed request.
  EXPECT_TRUE(cli.ping());
  EXPECT_EQ(fx.srv->status().jobs_failed, 1u);
}

TEST(ServeEndToEnd, UnknownAndGarbageFramesGetErrorFrames) {
  server_fixture fx;
  fx.start();
  // Raw connection speaking nonsense.
  client cli(fx.socket_path());  // establishes the path works first
  {
    // Unknown message type.
    struct raw {
      int fd;
      explicit raw(const std::string& path) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
      }
      ~raw() { ::close(fd); }
    };
    raw conn(fx.socket_path());
    write_frame_fd(conn.fd, static_cast<msg_type>(42), {});
    const auto reply = read_frame_fd(conn.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, msg_type::error);

    // A submit frame whose payload is garbage: error frame, then close.
    raw conn2(fx.socket_path());
    const std::vector<std::uint8_t> junk{1, 2, 3};
    write_frame_fd(conn2.fd, msg_type::submit, junk);
    const auto reply2 = read_frame_fd(conn2.fd);
    ASSERT_TRUE(reply2.has_value());
    EXPECT_EQ(reply2->type, msg_type::error);
    EXPECT_FALSE(read_frame_fd(conn2.fd).has_value());  // closed after
  }
  EXPECT_TRUE(cli.ping());  // the daemon itself is unscathed
}

TEST(ServeEndToEnd, ShutdownRequestAndGracefulStop) {
  server_fixture fx;
  fx.start();
  EXPECT_FALSE(fx.srv->shutdown_requested());
  {
    client cli(fx.socket_path());
    EXPECT_TRUE(cli.ping());
    cli.shutdown_server();
  }
  fx.srv->wait_shutdown_requested();
  EXPECT_TRUE(fx.srv->shutdown_requested());
  fx.srv->stop();  // drain; idempotent
  fx.srv->stop();
  // Socket file is gone and new connections are refused.
  EXPECT_FALSE(fs::exists(fx.socket_path()));
  EXPECT_THROW({ client refused(fx.socket_path()); }, std::runtime_error);
}

// ---------------------------------------------------------------------------
// v3: TCP + auth, admission control, metrics.
// ---------------------------------------------------------------------------

/// Raw Unix-socket connection for tests that speak the protocol by hand.
struct raw_unix_conn {
  int fd;
  explicit raw_unix_conn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }
  ~raw_unix_conn() { ::close(fd); }
};

TEST(ServeEndToEnd, TcpWithAuthServesByteIdenticalToUnixSocket) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.listen_address = "127.0.0.1:0";  // ephemeral port
  options.auth_token = "hunter2";
  options.threads = 2;
  fx.start_with(options);
  ASSERT_NE(fx.srv->tcp_port(), 0);

  const synth_request req = make_request_for_spec("c432");
  client unix_cli(fx.socket_path());  // Unix transport needs no auth
  const synth_response via_unix = unix_cli.submit(req);
  ASSERT_TRUE(via_unix.ok);

  client tcp_cli("127.0.0.1", fx.srv->tcp_port());
  const hello_reply hello = tcp_cli.hello();
  EXPECT_EQ(hello.server_version, protocol_version);
  EXPECT_TRUE(hello.auth_required);
  tcp_cli.authenticate("hunter2");
  EXPECT_FALSE(tcp_cli.hello().auth_required);  // this connection is authed
  const synth_response via_tcp = tcp_cli.submit(req);
  ASSERT_TRUE(via_tcp.ok);
  EXPECT_EQ(via_tcp.report, via_unix.report);
  EXPECT_EQ(via_tcp.validate_report, via_unix.validate_report);
}

TEST(ServeEndToEnd, TcpRejectsUnauthenticatedAndBadTokens) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.listen_address = "127.0.0.1:0";
  options.auth_token = "hunter2";
  fx.start_with(options);

  {
    // Any request before auth: typed auth_required, then the daemon closes.
    client cli("127.0.0.1", fx.srv->tcp_port());
    try {
      (void)cli.status();
      FAIL() << "unauthenticated status should have thrown";
    } catch (const service_error& e) {
      EXPECT_EQ(e.code, error_code::auth_required);
    }
    EXPECT_FALSE(cli.ping());  // connection is gone
  }
  {
    // Wrong token: typed auth_failed, then close (no retry on one stream).
    client cli("127.0.0.1", fx.srv->tcp_port());
    try {
      cli.authenticate("wrong");
      FAIL() << "bad token should have thrown";
    } catch (const service_error& e) {
      EXPECT_EQ(e.code, error_code::auth_failed);
    }
    EXPECT_FALSE(cli.ping());
  }
  // The Unix socket's trust boundary is file permissions: no auth needed.
  client unix_cli(fx.socket_path());
  EXPECT_TRUE(unix_cli.ping());
  const server_stats_reply stats = unix_cli.server_stats();
  EXPECT_EQ(stats.rejected_auth, 2u);
}

TEST(ServeEndToEnd, OldClientVersionGetsTypedErrorNotAHang) {
  server_fixture fx;
  fx.start();
  // A "v2 client": same frozen frame header, older version byte.  The v3
  // daemon must answer with an error frame AT v2 (legacy payload) and close.
  raw_unix_conn conn(fx.socket_path());
  write_frame_fd(conn.fd, msg_type::ping, {}, /*version=*/2);
  const auto reply = read_frame_fd(conn.fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, msg_type::error);
  EXPECT_EQ(reply->version, 2);
  const std::string message = decode_legacy_error(reply->payload);
  EXPECT_NE(message.find("version mismatch"), std::string::npos) << message;
  EXPECT_FALSE(read_frame_fd(conn.fd).has_value());  // closed after
}

TEST(ServeEndToEnd, OverloadShedsWithTypedErrorWhileAcceptedWorkCompletes) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.threads = 2;
  options.max_inflight = 1;  // one executing request...
  options.max_queue = 0;     // ...and zero queueing: burst -> overloaded
  fx.start_with(options);

  // Request A (a big multiplier, long optimize) occupies the single slot;
  // its first streamed progress event proves it is admitted and executing.
  std::atomic<bool> a_running{false};
  synth_response resp_a;
  std::thread a_thread([&] {
    client cli(fx.socket_path());
    synth_request req = make_request_for_spec("c6288");
    req.stream_progress = true;
    resp_a = cli.submit(
        req, [&](const progress_event&) { a_running.store(true); });
  });
  while (!a_running.load()) std::this_thread::yield();

  // Burst request B: deterministically shed with a typed overloaded error;
  // the connection survives the rejection.
  client cli_b(fx.socket_path());
  try {
    (void)cli_b.submit(make_request_for_spec("c432"));
    FAIL() << "burst submit should have been shed";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::overloaded);
    // v5 retry contract: shedding carries a non-zero backoff hint.
    EXPECT_GT(e.retry_after_ms, 0u);
    EXPECT_LE(e.retry_after_ms, 10000u);
  }
  EXPECT_TRUE(cli_b.ping());

  a_thread.join();
  EXPECT_TRUE(resp_a.ok);  // the accepted request completed normally
  const server_stats_reply stats = cli_b.server_stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.accepted, 1u);
}

TEST(ServeEndToEnd, DeadlineExpiresWhileQueuedBehindSlowRequest) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.threads = 2;
  options.max_inflight = 1;
  options.max_queue = 4;  // queueing allowed; the deadline does the shedding
  fx.start_with(options);

  std::atomic<bool> a_running{false};
  synth_response resp_a;
  std::thread a_thread([&] {
    client cli(fx.socket_path());
    synth_request req = make_request_for_spec("c6288");
    req.stream_progress = true;
    resp_a = cli.submit(
        req, [&](const progress_event&) { a_running.store(true); });
  });
  while (!a_running.load()) std::this_thread::yield();

  client cli_b(fx.socket_path());
  synth_request req_b = make_request_for_spec("c432");
  req_b.deadline_ms = 5.0;  // c6288 holds the slot far longer than this
  try {
    (void)cli_b.submit(req_b);
    FAIL() << "deadlined submit should have expired in the queue";
  } catch (const service_error& e) {
    EXPECT_EQ(e.code, error_code::deadline_expired);
  }
  EXPECT_TRUE(cli_b.ping());

  a_thread.join();
  EXPECT_TRUE(resp_a.ok);
  const server_stats_reply stats = cli_b.server_stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
}

TEST(ServeEndToEnd, ConnectionCapBouncesWithTypedError) {
  server_fixture fx;
  server_options options;
  options.socket_path = fx.socket_path();
  options.max_conns = 1;
  fx.start_with(options);

  auto first = std::make_unique<client>(fx.socket_path());
  EXPECT_TRUE(first->ping());  // the one allowed connection is live

  // The next connection is bounced before any handler thread exists.
  {
    raw_unix_conn extra(fx.socket_path());
    const auto reply = read_frame_fd(extra.fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, msg_type::error);
    const error_reply err = decode_error(reply->payload);
    EXPECT_EQ(err.code, error_code::too_many_connections);
    EXPECT_GT(err.retry_after_ms, 0u);  // v5: bounce carries a backoff hint
    EXPECT_FALSE(read_frame_fd(extra.fd).has_value());
  }
  EXPECT_TRUE(first->ping());  // the admitted connection is unaffected

  // Freeing the slot admits a newcomer (reaped on a later accept).
  first.reset();
  bool reconnected = false;
  for (int attempt = 0; attempt < 200 && !reconnected; ++attempt) {
    client retry(fx.socket_path());
    reconnected = retry.ping();
    if (!reconnected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(reconnected);
  EXPECT_GE(fx.srv->stats().rejected_conns, 1u);
}

TEST(ServeEndToEnd, ServerStatsReportsCountersAndLatencyHistograms) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  const synth_request req = make_request_for_spec("c432");
  ASSERT_TRUE(cli.submit(req).ok);  // cold: every stage executes
  const synth_response warm = cli.submit(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.served_from_cache);

  const server_stats_reply stats = cli.server_stats();
  EXPECT_EQ(stats.status.jobs_submitted, 2u);
  EXPECT_EQ(stats.status.jobs_completed, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GT(stats.max_inflight, 0u);
  EXPECT_EQ(stats.cache.full_hits, 1u);  // the warm repeat
  EXPECT_EQ(stats.disk_directory, fx.cache_dir());

  const auto find_hist =
      [&](const std::string& name) -> const histogram_snapshot* {
    for (const auto& h : stats.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  // Both requests waited (instantly) for admission and timed end to end;
  // only the cold one executed real stages.
  const histogram_snapshot* queue_wait = find_hist("queue_wait");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count, 2u);
  const histogram_snapshot* total = find_hist("request_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count, 2u);
  EXPECT_GT(total->sum_ms, 0.0);
  std::uint64_t bucket_sum = 0;
  for (const auto b : total->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total->count);  // every sample landed in a bucket
  const histogram_snapshot* optimize = find_hist("stage:optimize");
  ASSERT_NE(optimize, nullptr);
  EXPECT_EQ(optimize->count, 1u);  // cache replays are not re-recorded

  // The plaintext rendering is scrape-parseable and carries the counters.
  const std::string text = format_server_stats_text(stats);
  EXPECT_NE(text.find("xsfq_jobs_submitted_total 2"), std::string::npos);
  EXPECT_NE(text.find("xsfq_admission_accepted_total 2"), std::string::npos);
  EXPECT_NE(
      text.find("xsfq_latency_ms_count{name=\"request_total\"} 2"),
      std::string::npos)
      << text;
  // v6: the build-identity gauge and flight-recorder counters are always
  // present (values vary; the series must not).
  EXPECT_NE(text.find("xsfq_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_recorded_total "), std::string::npos);
  EXPECT_NE(text.find("xsfq_trace_spans_dropped_total "), std::string::npos);
}

// ---------------------------------------------------------------------------
// v6: end-to-end request tracing.
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, TracedSubmitCollectsSpansThatAddUp) {
  server_fixture fx;
  fx.start(/*threads=*/2);
  client cli(fx.socket_path());

  synth_request req = make_request_for_spec("c432");
  req.trace_hi = 0x0123456789abcdefull;
  req.trace_lo = 0xfedcba9876543210ull;
  ASSERT_TRUE(cli.submit(req).ok);

  trace_request treq;
  treq.trace_hi = req.trace_hi;
  treq.trace_lo = req.trace_lo;
  const trace_reply reply = cli.trace(treq);
  EXPECT_EQ(reply.trace_hi, req.trace_hi);
  EXPECT_EQ(reply.trace_lo, req.trace_lo);
  ASSERT_FALSE(reply.spans.empty());

  // Sorted by start, and every expected span kind present exactly once
  // (cold run: queue_wait, runner_queue, each live stage, request_total).
  const auto count = [&](const std::string& name) {
    std::size_t n = 0;
    for (const auto& s : reply.spans) n += (s.name == name);
    return n;
  };
  EXPECT_EQ(count("queue_wait"), 1u);
  EXPECT_EQ(count("runner_queue"), 1u);
  EXPECT_EQ(count("request_total"), 1u);
  EXPECT_EQ(count("stage:optimize"), 1u);
  for (std::size_t i = 1; i < reply.spans.size(); ++i) {
    EXPECT_LE(reply.spans[i - 1].start_us, reply.spans[i].start_us);
  }

  // The waterfall acceptance invariant: stage spans sum to no more than
  // the measured end-to-end total, and the total contains every span.
  std::uint64_t total_dur = 0, total_start = 0, stage_sum = 0;
  for (const auto& s : reply.spans) {
    if (s.name == "request_total") {
      total_dur = s.dur_us;
      total_start = s.start_us;
    }
    if (s.name.rfind("stage:", 0) == 0) stage_sum += s.dur_us;
  }
  EXPECT_GT(total_dur, 0u);
  EXPECT_GT(stage_sum, 0u);
  EXPECT_LE(stage_sum, total_dur);
  for (const auto& s : reply.spans) {
    // queue_wait precedes the total; send follows it (the response bytes
    // leave after the handler's request_total span closed).
    if (s.name == "queue_wait" || s.name == "request_total" ||
        s.name == "send") {
      continue;
    }
    EXPECT_GE(s.start_us + s.dur_us, total_start) << s.name;
    EXPECT_LE(s.start_us + s.dur_us, total_start + total_dur) << s.name;
  }

  // The scrape counts the recorded spans.
  const server_stats_reply stats = cli.server_stats();
  EXPECT_GE(stats.trace_spans_recorded, reply.spans.size());
}

TEST(ServeEndToEnd, UntracedSubmitCollectsNothingAndUnknownIdIsEmpty) {
  server_fixture fx;
  fx.start();
  client cli(fx.socket_path());

  // hello advertises the capability.
  const hello_reply hello = cli.hello();
  bool has_trace = false;
  for (const auto& cap : hello.capabilities) has_trace |= (cap == "trace");
  EXPECT_TRUE(has_trace);

  ASSERT_TRUE(cli.submit(make_request_for_spec("c432")).ok);  // untraced

  trace_request treq;
  treq.trace_hi = 0xdeadbeefdeadbeefull;
  treq.trace_lo = 0x1111111111111111ull;
  // Unknown id: empty reply, not an error, and the connection stays usable.
  EXPECT_TRUE(cli.trace(treq).spans.empty());
  EXPECT_TRUE(cli.ping());
}

TEST(ServeEndToEnd, TraceOutDirExportsChromeJsonPerTracedRequest) {
  server_fixture fx;
  const std::string out_dir = fx.dir.path + "/traces";
  fs::create_directories(out_dir);
  {
    server_options options;
    options.socket_path = fx.socket_path();
    options.threads = 2;
    options.trace_out_dir = out_dir;
    fx.start_with(std::move(options));
  }
  client cli(fx.socket_path());
  synth_request req = make_request_for_spec("c432");
  req.trace_hi = 1;
  req.trace_lo = 2;
  ASSERT_TRUE(cli.submit(req).ok);
  // The handler replies before it exports the trace, and serves one
  // connection's frames in order: once a follow-up on the same connection
  // is answered, the export has finished.
  ASSERT_TRUE(cli.ping());

  // Exactly one export, named by the hex trace id, valid Chrome JSON shape.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find("trace_00000000000000010000000000000002.json"),
            std::string::npos);
  std::ifstream in(files[0]);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request_total\""), std::string::npos);
  EXPECT_NE(
      json.find("\"trace_id\":\"00000000000000010000000000000002\""),
      std::string::npos);
}

TEST(ServeEndToEnd, RetainedByteBudgetEvictsAndSurfacesInScrape) {
  // A deliberately starved retained-network budget: every new session
  // evicts the previous one (the most recent entry is always kept), and
  // the v7 counters show up in cache_stats and the Prometheus scrape.
  server_fixture fx;
  {
    server_options options;
    options.threads = 2;
    options.retained_bytes = 1;  // below any real network's footprint
    fx.start_with(std::move(options));
  }
  client cli(fx.socket_path());

  for (const char* name : {"c432", "c880", "c1908"}) {
    synth_request base = make_request_for_spec(name);
    const aig base_net = load_request_circuit(base);
    ASSERT_TRUE(cli.submit(base).ok) << name;

    synth_delta_request dreq;
    dreq.base = base;
    dreq.base_content_hash = base_net.content_hash();
    // Flip one gate's fanin complement — always a legal, non-no-op edit.
    aig::node_index target = 0;
    for (aig::node_index n = 0; n < base_net.size(); ++n) {
      if (base_net.is_gate(n)) target = n;
    }
    const signal a = base_net.fanin0(target);
    const signal b = base_net.fanin1(target);
    const auto tok = [](const signal s) {
      return std::string(s.is_complemented() ? "!" : "") + "n" +
             std::to_string(s.index());
    };
    dreq.edit_text = "replace n" + std::to_string(target) + " " + tok(a) +
                     " " + tok(!b) + "\n";
    ASSERT_TRUE(cli.submit_delta(dreq).ok) << name;
  }

  const cache_stats_reply cache = cli.cache_stats();
  EXPECT_GT(cache.stats.retained_evictions, 0u);
  EXPECT_LE(cache.stats.retained_networks, 1u);  // budget keeps only newest

  const std::string text = format_server_stats_text(cli.server_stats());
  EXPECT_NE(text.find("xsfq_eco_retained_evictions_total"),
            std::string::npos);
  EXPECT_NE(text.find("xsfq_cache_disk_quarantine_pruned_total"),
            std::string::npos);
}

}  // namespace
}  // namespace xsfq
