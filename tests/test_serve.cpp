// Tests for the serve layer: the strict JSON request parser, HTTP request
// framing, request decoding, channel classification, the transport-
// independent AnalysisService (repeat-identical reports, concurrent
// requests deduplicated by the StageCache alone), and a socket-level
// end-to-end pass over every endpoint.

#include "auditherm/serve/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "auditherm/core/cli.hpp"
#include "auditherm/obs/metrics.hpp"
#include "auditherm/obs/trace_span.hpp"
#include "auditherm/serve/json.hpp"
#include "auditherm/serve/scenario_codec.hpp"
#include "auditherm/serve/service.hpp"
#include "auditherm/sim/dataset.hpp"
#include "auditherm/sim/scenario.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace core = auditherm::core;
namespace serve = auditherm::serve;
namespace json = auditherm::serve::json;
namespace sim = auditherm::sim;
namespace timeseries = auditherm::timeseries;

namespace {

// --- JSON parser ----------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndStructure) {
  const auto v = json::parse(
      R"({"s": "hi", "n": -2.5e1, "t": true, "f": false, "z": null,)"
      R"( "a": [1, 2, 3], "o": {"k": 7}})");
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.find("s"), nullptr);
  EXPECT_EQ(v.find("s")->string, "hi");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -25.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_FALSE(v.find("f")->boolean);
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_TRUE(v.find("a")->is_array());
  EXPECT_EQ(v.find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("o")->find("k")->number, 7.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapesIncludingUnicode) {
  const auto v = json::parse(R"({"k": "a\"b\\c\n\tAé"})");
  EXPECT_EQ(v.find("k")->string, "a\"b\\c\n\tA\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  const auto emoji = json::parse(R"("😀")");
  EXPECT_EQ(emoji.string, "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse(""), json::ParseError);
  EXPECT_THROW((void)json::parse("{"), json::ParseError);
  EXPECT_THROW((void)json::parse(R"({"a": 1,})"), json::ParseError);
  EXPECT_THROW((void)json::parse("[1 2]"), json::ParseError);
  EXPECT_THROW((void)json::parse("tru"), json::ParseError);
  EXPECT_THROW((void)json::parse(R"("unterminated)"), json::ParseError);
  EXPECT_THROW((void)json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW((void)json::parse("01"), json::ParseError);
}

TEST(ServeJson, EscapeRoundTripsThroughParse) {
  const std::string nasty = "line\nquote\" back\\slash \x01 tab\t";
  const auto parsed = json::parse("\"" + json::escape(nasty) + "\"");
  EXPECT_EQ(parsed.string, nasty);
}

// --- HTTP framing ---------------------------------------------------------

TEST(ServeHttp, ParsesRequestLineAndBody) {
  serve::HttpRequest req;
  ASSERT_TRUE(serve::parse_http_request(
      "POST /analyze HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody", req));
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/analyze");
  EXPECT_EQ(req.body, "body");

  ASSERT_TRUE(serve::parse_http_request("GET /healthz HTTP/1.0\r\n\r\n", req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/healthz");
  EXPECT_TRUE(req.body.empty());
}

TEST(ServeHttp, RejectsMalformedRequests) {
  serve::HttpRequest req;
  EXPECT_FALSE(serve::parse_http_request("", req));
  EXPECT_FALSE(serve::parse_http_request("GET /healthz HTTP/1.1\r\n", req));
  EXPECT_FALSE(serve::parse_http_request("GARBAGE\r\n\r\n", req));
  EXPECT_FALSE(serve::parse_http_request("GET /x SMTP/1.0\r\n\r\n", req));
}

// --- Request decoding -----------------------------------------------------

TEST(ServeRequest, DecodesFullBodyAndDefaults) {
  const auto full = serve::request_from_json(json::parse(
      R"({"data": "t.csv", "metric": "euclidean", "clusters": 3,)"
      R"( "order": 1, "per_cluster": 2, "sweep": 4, "graph": "knn",)"
      R"( "knn": 6})"));
  EXPECT_EQ(full.data, "t.csv");
  EXPECT_EQ(full.metric, "euclidean");
  EXPECT_EQ(full.clusters, 3);
  EXPECT_EQ(full.order, 1);
  EXPECT_EQ(full.per_cluster, 2);
  EXPECT_EQ(full.sweep, 4);
  EXPECT_EQ(full.graph, "knn");
  EXPECT_EQ(full.knn, 6);

  const auto minimal =
      serve::request_from_json(json::parse(R"({"data": "t.csv"})"));
  EXPECT_EQ(minimal.data, "t.csv");
  EXPECT_EQ(minimal.clusters, 0);
  EXPECT_EQ(minimal.order, 2);
  EXPECT_EQ(minimal.per_cluster, 1);
  EXPECT_EQ(minimal.sweep, 0);
  EXPECT_TRUE(minimal.metric.empty());
}

TEST(ServeRequest, RejectsUnknownKeysAndWrongTypes) {
  EXPECT_THROW((void)serve::request_from_json(json::parse("{}")),
               std::invalid_argument);  // data required
  EXPECT_THROW((void)serve::request_from_json(json::parse("[1]")),
               std::invalid_argument);  // not an object
  EXPECT_THROW((void)serve::request_from_json(
                   json::parse(R"({"data": "t.csv", "clsuters": 3})")),
               std::invalid_argument);  // typo'd key must not be ignored
  EXPECT_THROW((void)serve::request_from_json(
                   json::parse(R"({"data": "t.csv", "clusters": "3"})")),
               std::invalid_argument);  // wrong type
  EXPECT_THROW((void)serve::request_from_json(
                   json::parse(R"({"data": "t.csv", "clusters": 2.5})")),
               std::invalid_argument);  // non-integer count
  for (const char* huge : {"1e300", "-1e19", "9223372036854775808"}) {
    EXPECT_THROW((void)serve::request_from_json(json::parse(
                     std::string(R"({"data": "t.csv", "sweep": )") + huge +
                     "}")),
                 std::invalid_argument)
        << huge;  // a whole number no long can hold
  }
}

// --- Channel classification ----------------------------------------------

TEST(ServeChannels, ExtendedRangeIdsAreSensorsAndReservedBandIsNot) {
  const timeseries::TimeGrid grid(0, 30, 8);
  const timeseries::MultiTrace trace(
      grid, {5, 40, 41, 99, 150, 199, 200, 750,
             sim::DatasetChannels::kVavBase,
             sim::DatasetChannels::kOccupancy,
             sim::DatasetChannels::kLighting});
  const auto sets = serve::classify_channels(trace);
  EXPECT_EQ(sets.sensors,
            (std::vector<timeseries::ChannelId>{5, 99, 200, 750}));
  EXPECT_EQ(sets.thermostats, (std::vector<timeseries::ChannelId>{40, 41}));
  EXPECT_EQ(sets.inputs,
            (std::vector<timeseries::ChannelId>{
                sim::DatasetChannels::kVavBase,
                sim::DatasetChannels::kOccupancy,
                sim::DatasetChannels::kLighting}));
}

TEST(ServeChannels, ThrowsWithoutEnoughSensorsOrInputs) {
  const timeseries::TimeGrid grid(0, 30, 8);
  EXPECT_THROW(
      (void)serve::classify_channels(timeseries::MultiTrace(grid, {1, 2})),
      timeseries::InputError);  // no inputs
  EXPECT_THROW((void)serve::classify_channels(timeseries::MultiTrace(
                   grid, {1, sim::DatasetChannels::kOccupancy,
                          sim::DatasetChannels::kLighting})),
               timeseries::InputError);  // one sensor
}

// --- AnalysisService ------------------------------------------------------

/// Shared small trace CSV on disk (simulation costs a few hundred ms),
/// named per process and removed at exit: ctest runs every test as its own
/// process, in parallel, and a shared name would let one truncate
/// another's input.
const std::string& trace_csv_path() {
  static const struct TraceFile {
    std::string path = testing::TempDir() + "test_serve_trace_" +
                       std::to_string(::getpid()) + ".csv";
    TraceFile() {
      sim::DatasetConfig config;
      config.days = 14;
      config.failure_days = 2;
      timeseries::write_csv_file(path, sim::generate_dataset(config).trace);
    }
    ~TraceFile() { std::remove(path.c_str()); }
  } file;
  return file.path;
}

serve::AnalyzeRequest small_request() {
  serve::AnalyzeRequest request;
  request.data = trace_csv_path();
  request.clusters = 2;
  return request;
}

/// A per-process temporary file holding `text`, removed when it goes out of
/// scope (same naming rule as trace_csv_path).
struct TempFile {
  TempFile(const std::string& name, const std::string& text)
      : path(testing::TempDir() + name + "_" + std::to_string(::getpid())) {
    std::ofstream(path) << text;
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(ServeService, RepeatRequestsAreByteIdenticalAndHitTheCache) {
  serve::AnalysisService service;
  const auto first = service.analyze(small_request());
  EXPECT_NE(first.find("reduced second-order model"), std::string::npos);
  const auto misses_after_first = service.cache().totals().misses;
  const auto second = service.analyze(small_request());
  EXPECT_EQ(first, second);
  // Every stage (and the trace load) came from the cache the second time.
  EXPECT_EQ(service.cache().totals().misses, misses_after_first);
  EXPECT_GT(service.cache().totals().hits, 0u);
}

TEST(ServeService, LoadSpanShowsTheParseOnlyOnAMiss) {
  if (!auditherm::obs::kCompiledIn) GTEST_SKIP() << "observability off";
  serve::AnalysisService service;
  const auto load_children = [&] {
    auditherm::obs::Recorder recorder;
    const auditherm::obs::RecorderScope scope(&recorder);
    (void)service.analyze(small_request());
    const auto spans = recorder.spans();
    std::vector<std::string> loads;
    for (const auto& load : spans) {
      if (load.name != "serve.load_trace") continue;
      loads.push_back("load:");
      for (const auto& child : spans) {
        if (child.parent == load.id) loads.back() += " " + child.name;
      }
    }
    return loads;
  };
  // A miss reads, hashes and parses; a hit reads and hashes only.
  EXPECT_EQ(load_children(),
            std::vector<std::string>{"load: timeseries.read_csv"});
  EXPECT_EQ(load_children(), std::vector<std::string>{"load:"});
}

TEST(ServeService, CacheOnAndOffProduceIdenticalReports) {
  serve::ServiceConfig no_cache;
  no_cache.cache_enabled = false;
  serve::AnalysisService cached;
  serve::AnalysisService uncached(no_cache);
  EXPECT_EQ(cached.analyze(small_request()),
            uncached.analyze(small_request()));
  EXPECT_EQ(uncached.cache().size(), 0u);
}

TEST(ServeService, ConcurrentRequestsDedupeThroughTheCache) {
  // Request threads (outside any parallel region) racing one request on a
  // fresh service: the StageCache parks every thread that needs a stage
  // another is still building, so the trace load and each stage are built
  // once. The reports match, and the race costs exactly the misses of one
  // request on another fresh service.
  serve::AnalysisService alone;
  const auto expected = alone.analyze(small_request());
  const auto one_request_misses = alone.cache().totals().misses;

  constexpr int kThreads = 4;
  serve::AnalysisService service;
  std::vector<std::string> reports(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { reports[t] = service.analyze(small_request()); });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reports[t], expected) << "thread " << t;
  }
  EXPECT_EQ(service.cache().totals().misses, one_request_misses);
}

TEST(ServeService, SweepRequestSharesThePreparedStages) {
  serve::AnalysisService service;
  auto request = small_request();
  (void)service.analyze(request);  // warm Step-1
  const auto misses_before = service.cache().totals().misses;
  request.sweep = 2;
  const auto report = service.analyze(request);
  EXPECT_NE(report.find("strategy sweep"), std::string::npos);
  // The sweep re-used every prepared Step-1 stage: no new stage builds
  // besides the per-seed Step-2/3 work, which is uncached by design.
  EXPECT_EQ(service.cache().totals().misses, misses_before);
}

TEST(ServeService, StreamingReportPinsTheCounterLine) {
  serve::AnalysisService service;
  auto request = small_request();
  for (const long stream : {96L, -1L}) {
    request.stream = stream;
    const auto report = service.analyze(request);
    const auto block = report.find("\nstreaming identification (");
    ASSERT_NE(block, std::string::npos) << stream;
    const auto counters = report.find("  rows ", block);
    ASSERT_NE(counters, std::string::npos) << stream;
    const std::string line =
        report.substr(counters, report.find('\n', counters) - counters);
    EXPECT_EQ(line, stream > 0
                        ? "  rows 672, window transitions 94, qr updates 564"
                        : "  rows 672, window transitions 564, qr updates 564");
    const auto aic = report.find(", AIC ", counters);
    ASSERT_NE(aic, std::string::npos) << stream;
    EXPECT_TRUE(std::isfinite(std::stod(report.substr(aic + 6)))) << stream;
  }
}

TEST(ServeService, InvalidOptionValuesThrow) {
  serve::AnalysisService service;
  auto bad_graph = small_request();
  bad_graph.graph = "ring";
  EXPECT_THROW((void)service.analyze(bad_graph), core::cli::UsageError);
  auto bad_path = small_request();
  bad_path.data = "/nonexistent/nope.csv";
  EXPECT_THROW((void)service.analyze(bad_path), std::runtime_error);
}

/// One out-of-range analyze field: the request edit, the same edit as a
/// JSON body fragment, a piece of the error it must produce, and whether
/// that error is a usage error (else an input error).
struct OutOfRangeField {
  void (*apply)(serve::AnalyzeRequest&);
  const char* json;
  const char* message;
  bool usage = true;
};

/// Every numeric analyze field outside its range, and an unknown metric.
/// All but the last are usage errors, caught before the trace is read;
/// more clusters than the trace has sensors is an input error, caught once
/// the channels are classified. None may reach a Step-1 stage.
const std::vector<OutOfRangeField>& out_of_range_fields() {
  static const std::vector<OutOfRangeField> fields{
      {[](serve::AnalyzeRequest& r) { r.clusters = -1; }, R"("clusters": -1)",
       "--clusters must be >= 0"},
      {[](serve::AnalyzeRequest& r) { r.knn = -3; r.graph = "knn"; },
       R"("knn": -3, "graph": "knn")", "--knn must be >= 0"},
      {[](serve::AnalyzeRequest& r) { r.sweep = -2; }, R"("sweep": -2)",
       "--sweep must be >= 0"},
      {[](serve::AnalyzeRequest& r) { r.per_cluster = -1; },
       R"("per_cluster": -1)", "--per-cluster must be >= 1"},
      {[](serve::AnalyzeRequest& r) { r.per_cluster = 0; },
       R"("per_cluster": 0)", "--per-cluster must be >= 1"},
      {[](serve::AnalyzeRequest& r) { r.order = 7; }, R"("order": 7)",
       "--order must be 1 or 2"},
      {[](serve::AnalyzeRequest& r) { r.order = 0; }, R"("order": 0)",
       "--order must be 1 or 2"},
      {[](serve::AnalyzeRequest& r) { r.stream = -5; }, R"("stream": -5)",
       "--stream expects a window length"},
      {[](serve::AnalyzeRequest& r) { r.metric = "bogus"; },
       R"("metric": "bogus")", "unknown --metric value 'bogus'"},
      {[](serve::AnalyzeRequest& r) { r.clusters = 99; }, R"("clusters": 99)",
       "--clusters 99 exceeds the trace's 25 sensors", false},
  };
  return fields;
}

/// Names of the spans `recorder` holds, one per span.
std::vector<std::string> span_names(const auditherm::obs::Recorder& recorder) {
  std::vector<std::string> names;
  for (const auto& span : recorder.spans()) names.push_back(span.name);
  return names;
}

bool has_span(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(ServeService, OutOfRangeFieldsFailBeforeAnyStage) {
  serve::AnalysisService service;
  for (const auto& field : out_of_range_fields()) {
    SCOPED_TRACE(field.json);
    auto request = small_request();
    field.apply(request);
    const bool usage = field.usage;
    auditherm::obs::Recorder recorder;
    {
      const auditherm::obs::RecorderScope scope(&recorder);
      try {
        (void)service.analyze(request);
        ADD_FAILURE() << "expected an error";
      } catch (const core::cli::UsageError& e) {
        EXPECT_TRUE(usage) << e.what();
        EXPECT_NE(std::string(e.what()).find(field.message), std::string::npos)
            << e.what();
      } catch (const timeseries::InputError& e) {
        EXPECT_FALSE(usage) << e.what();
        EXPECT_NE(std::string(e.what()).find(field.message), std::string::npos)
            << e.what();
      }
    }
    const auto names = span_names(recorder);
    EXPECT_FALSE(has_span(names, "stage.spectrum"));
    EXPECT_FALSE(has_span(names, "pipeline.prepare"));
    if (auditherm::obs::kCompiledIn) {
      EXPECT_EQ(has_span(names, "serve.load_trace"), !usage);
    }
    // A usage error wins over a data path that does not exist.
    if (usage) {
      request.data = "/nonexistent/nope.csv";
      EXPECT_THROW((void)service.analyze(request), core::cli::UsageError);
    }
  }
  EXPECT_EQ(service.cache().stats(core::stage::kSpectrum).misses, 0u);
  // knn 0 still means the default neighbor count (8).
  auto knn_default = small_request();
  knn_default.graph = "knn";
  auto knn_eight = knn_default;
  knn_eight.knn = 8;
  EXPECT_EQ(service.analyze(knn_default), service.analyze(knn_eight));
}

// --- Socket-level end-to-end ----------------------------------------------

/// Minimal HTTP client: one request, reads to connection close.
std::string http_exchange(std::uint16_t port, const std::string& method,
                          const std::string& path, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  std::string request = method + " " + path + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string response_body(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

TEST(ServeServer, EndToEndOverLoopbackSockets) {
  serve::AnalysisService service;
  auditherm::obs::Recorder recorder;
  const auditherm::obs::RecorderScope scope(&recorder);
  serve::ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = 2;
  serve::Server server(config, service, &recorder);
  server.start();
  ASSERT_GT(server.port(), 0);
  std::thread runner([&] { server.run(); });

  const auto health = http_exchange(server.port(), "GET", "/healthz", "");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_EQ(response_body(health), "ok\n");

  // A daemon analysis must match the in-process service call bytewise.
  const std::string body =
      R"({"data": ")" + json::escape(trace_csv_path()) +
      R"(", "clusters": 2})";
  const auto analyzed =
      http_exchange(server.port(), "POST", "/analyze", body);
  EXPECT_NE(analyzed.find("HTTP/1.1 200"), std::string::npos);
  serve::AnalysisService reference;
  EXPECT_EQ(response_body(analyzed), reference.analyze(small_request()));
  // ... and so must a report with the streaming block.
  const auto streamed = http_exchange(
      server.port(), "POST", "/analyze",
      R"({"data": ")" + json::escape(trace_csv_path()) +
          R"(", "clusters": 2, "stream": 96})");
  EXPECT_NE(streamed.find("HTTP/1.1 200"), std::string::npos);
  auto stream_request = small_request();
  stream_request.stream = 96;
  EXPECT_EQ(response_body(streamed), reference.analyze(stream_request));

  const auto bad =
      http_exchange(server.port(), "POST", "/analyze", "{not json");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  // Bad input data is the client's error: a data file the daemon cannot
  // open is a 404, a file that is not a trace and a non-finite sample are
  // 400s naming the problem.
  const auto analyze_file = [&](const std::string& path) {
    return http_exchange(server.port(), "POST", "/analyze",
                         R"({"data": ")" + json::escape(path) + R"("})");
  };
  const auto no_file = analyze_file("/nonexistent/nope.csv");
  EXPECT_NE(no_file.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(response_body(no_file).find("could not read"), std::string::npos);
  const TempFile prose("test_serve_prose", "hello, world\n");
  const auto not_trace = analyze_file(prose.path);
  EXPECT_NE(not_trace.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response_body(not_trace).find("read_csv: bad header"),
            std::string::npos);
  // Row 100 of the trace is line 103 (after the step comment and the
  // header); its first channel is CSV column 2.
  std::ifstream in(trace_csv_path());
  std::string csv, line;
  for (int n = 1; std::getline(in, line); ++n) {
    if (n == 103) {
      const auto first = line.find(',');
      line = line.substr(0, first) + ",inf" +
             line.substr(line.find(',', first + 1));
    }
    csv += line + "\n";
  }
  const TempFile poisoned("test_serve_inf", csv);
  const auto non_finite = analyze_file(poisoned.path);
  EXPECT_NE(non_finite.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response_body(non_finite)
                .find("non-finite sample 'inf' at line 103, column 2"),
            std::string::npos);
  // A one-day trace parses but holds too little data to identify a model
  // or calibrate the CO2 occupancy estimate: 400s naming the shortfall.
  sim::DatasetConfig one_day;
  one_day.days = 1;
  one_day.failure_days = 0;
  const TempFile short_trace("test_serve_one_day", [&] {
    std::ostringstream out;
    timeseries::write_csv(out, sim::generate_dataset(one_day).trace);
    return out.str();
  }());
  const auto too_short = analyze_file(short_trace.path);
  EXPECT_NE(too_short.find("HTTP/1.1 400"), std::string::npos) << too_short;
  EXPECT_NE(response_body(too_short).find(
                "ModelEstimator::fit: only 0 usable transitions"),
            std::string::npos)
      << too_short;
  const auto uncalibrated = http_exchange(
      server.port(), "POST", "/analyze",
      R"({"data": ")" + json::escape(short_trace.path) +
          R"(", "inputs": {"occupancy": "estimated"}})");
  EXPECT_NE(uncalibrated.find("HTTP/1.1 400"), std::string::npos)
      << uncalibrated;
  EXPECT_NE(response_body(uncalibrated)
                .find("Co2OccupancyEstimator::calibrate: too few usable "
                      "transitions"),
            std::string::npos)
      << uncalibrated;
  // The eigensolver follows from the graph, so "eigen" is an unknown key
  // like any other, answered with a 400 that names it.
  const auto eigen = http_exchange(
      server.port(), "POST", "/analyze",
      R"({"data": ")" + json::escape(trace_csv_path()) +
          R"(", "eigen": "jacobi"})");
  EXPECT_NE(eigen.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response_body(eigen).find("'eigen'"), std::string::npos);
  const auto missing = http_exchange(server.port(), "GET", "/nope", "");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  const auto wrong_method =
      http_exchange(server.port(), "POST", "/healthz", "");
  EXPECT_NE(wrong_method.find("HTTP/1.1 405"), std::string::npos);

  const auto metrics = http_exchange(server.port(), "GET", "/metrics", "");
  EXPECT_NE(metrics.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(metrics.find("application/json"), std::string::npos);
  EXPECT_NE(response_body(metrics).find("auditherm.metrics"),
            std::string::npos);

  const auto shutdown =
      http_exchange(server.port(), "POST", "/shutdown", "");
  EXPECT_NE(shutdown.find("HTTP/1.1 200"), std::string::npos);
  runner.join();  // run() drains and exits after /shutdown
  EXPECT_TRUE(server.stopping());
}

TEST(ServeServer, OutOfRangeFieldsAnswer400BeforeAnyStage) {
  serve::AnalysisService service;
  auditherm::obs::Recorder recorder;
  const auditherm::obs::RecorderScope scope(&recorder);
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  serve::Server server(config, service, &recorder);
  server.start();
  ASSERT_GT(server.port(), 0);
  std::thread runner([&] { server.run(); });
  for (const auto& field : out_of_range_fields()) {
    SCOPED_TRACE(field.json);
    const auto answer = http_exchange(
        server.port(), "POST", "/analyze",
        R"({"data": ")" + json::escape(trace_csv_path()) + R"(", )" +
            field.json + "}");
    EXPECT_NE(answer.find("HTTP/1.1 400"), std::string::npos) << answer;
    EXPECT_NE(response_body(answer).find(field.message), std::string::npos)
        << answer;
  }
  (void)http_exchange(server.port(), "POST", "/shutdown", "");
  runner.join();
  const auto names = span_names(recorder);
  EXPECT_FALSE(has_span(names, "stage.spectrum"));
  EXPECT_FALSE(has_span(names, "pipeline.prepare"));
  EXPECT_EQ(service.cache().stats(core::stage::kSpectrum).misses, 0u);
}

TEST(ServeServer, SimulateEndpointReturnsTheFleetManifest) {
  serve::AnalysisService service;
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  serve::Server server(config, service, nullptr);
  server.start();
  std::thread runner([&] { server.run(); });

  const std::string body = R"({"base_seed": 5, "scenarios": [
    {"name": "e2e-a", "days": 2, "failure_days": 0},
    {"name": "e2e-b", "days": 2, "failure_days": 1,
     "building": "grid", "sensors": 12}
  ]})";
  const auto ok = http_exchange(server.port(), "POST", "/simulate", body);
  EXPECT_NE(ok.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(ok.find("application/json"), std::string::npos);
  const auto manifest = json::parse(response_body(ok));
  EXPECT_EQ(manifest.find("schema")->string, "auditherm.fleet-manifest");
  EXPECT_EQ(manifest.find("buildings")->number, 2.0);
  const auto& scenarios = manifest.find("scenarios")->array;
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].find("name")->string, "e2e-a");

  // The daemon's manifest must match an in-process run of the same
  // decoded request — one code path from spec to fingerprint.
  const auto request = serve::simulate_request_from_json(json::parse(body));
  const auto outcomes = sim::run_fleet(request.specs);
  char expected[24];
  std::snprintf(expected, sizeof(expected), "0x%016llx",
                static_cast<unsigned long long>(outcomes[0].trace_fingerprint));
  EXPECT_EQ(scenarios[0].find("trace_fingerprint")->string, expected);

  const auto bad =
      http_exchange(server.port(), "POST", "/simulate", R"({"dayz": 1})");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response_body(bad).find("dayz"), std::string::npos);
  const auto unparsable =
      http_exchange(server.port(), "POST", "/simulate", "{nope");
  EXPECT_NE(unparsable.find("HTTP/1.1 400"), std::string::npos);
  const auto wrong_method =
      http_exchange(server.port(), "GET", "/simulate", "");
  EXPECT_NE(wrong_method.find("HTTP/1.1 405"), std::string::npos);

  const auto shutdown =
      http_exchange(server.port(), "POST", "/shutdown", "");
  EXPECT_NE(shutdown.find("HTTP/1.1 200"), std::string::npos);
  runner.join();
}


// --- Input plans over the wire --------------------------------------------

TEST(ServeRequest, DecodesTheInputsObject) {
  const auto request = serve::request_from_json(json::parse(
      R"({"data": "t.csv", "inputs": {"occupancy": "estimated",)"
      R"( "round": true, "clamp_max": 120}})"));
  EXPECT_EQ(request.occupancy, "estimated");
  EXPECT_TRUE(request.occupancy_round);
  EXPECT_EQ(request.occupancy_clamp, 120.0);

  // Defaults when the object is absent: the ground-truth path.
  const auto plain =
      serve::request_from_json(json::parse(R"({"data": "t.csv"})"));
  EXPECT_TRUE(plain.occupancy.empty());
  EXPECT_FALSE(plain.occupancy_round);
  EXPECT_TRUE(std::isnan(plain.occupancy_clamp));
}

/// The decode error for `body` names the full key path `path`.
void expect_key_path_error(const std::string& body, const std::string& path) {
  try {
    (void)serve::request_from_json(json::parse(body));
    FAIL() << "expected std::invalid_argument for " << body;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
        << "message '" << error.what() << "' lacks key path '" << path << "'";
  }
}

TEST(ServeRequest, InputsErrorsCarryTheFullKeyPath) {
  expect_key_path_error(R"({"data": "t.csv", "inputs": 3})", "'inputs'");
  expect_key_path_error(
      R"({"data": "t.csv", "inputs": {"occupancy": 1}})", "inputs.occupancy");
  expect_key_path_error(
      R"({"data": "t.csv", "inputs": {"occupancy": "psychic"}})",
      "inputs.occupancy");
  expect_key_path_error(
      R"({"data": "t.csv", "inputs": {"round": "yes"}})", "inputs.round");
  expect_key_path_error(
      R"({"data": "t.csv", "inputs": {"clamp_max": "120"}})",
      "inputs.clamp_max");
  expect_key_path_error(
      R"({"data": "t.csv", "inputs": {"clammp_max": 120}})",
      "inputs.clammp_max");  // typo'd key must not be ignored
}

serve::AnalyzeRequest estimated_request() {
  auto request = small_request();
  request.occupancy = "estimated";
  return request;
}

TEST(ServeService, OccupancySourcesNeverAliasInTheCache) {
  serve::AnalysisService service;
  (void)service.analyze(small_request());  // warm the ground-truth stages
  const auto misses_truth = service.cache().totals().misses;

  // The estimated plan folds its fingerprint into every stage key, so the
  // warmed ground-truth artifacts must NOT satisfy it...
  const auto estimated = service.analyze(estimated_request());
  EXPECT_NE(estimated.find("occupancy input: estimated from CO2 mass balance"),
            std::string::npos);
  EXPECT_GT(service.cache().totals().misses, misses_truth);

  // ...while repeating either source is pure cache hits, byte-identical.
  const auto misses_both = service.cache().totals().misses;
  EXPECT_EQ(service.analyze(estimated_request()), estimated);
  EXPECT_EQ(service.analyze(small_request()),
            service.analyze(small_request()));
  EXPECT_EQ(service.cache().totals().misses, misses_both);

  // Clamp/round options key separately from the plain estimate too.
  auto clamped = estimated_request();
  clamped.occupancy_round = true;
  (void)service.analyze(clamped);
  EXPECT_GT(service.cache().totals().misses, misses_both);
}

TEST(ServeService, UnknownOccupancySourceThrows) {
  serve::AnalysisService service;
  auto bad = small_request();
  bad.occupancy = "psychic";
  EXPECT_THROW((void)service.analyze(bad), std::exception);
}

TEST(ServeServer, EstimatedOccupancyMatchesTheInProcessServiceBytewise) {
  serve::AnalysisService service;
  serve::ServerConfig config;
  config.port = 0;
  config.workers = 2;
  serve::Server server(config, service, nullptr);
  server.start();
  ASSERT_GT(server.port(), 0);
  std::thread runner([&] { server.run(); });

  const std::string body =
      R"({"data": ")" + json::escape(trace_csv_path()) +
      R"(", "clusters": 2, "inputs": {"occupancy": "estimated"}})";
  const auto analyzed =
      http_exchange(server.port(), "POST", "/analyze", body);
  EXPECT_NE(analyzed.find("HTTP/1.1 200"), std::string::npos);

  // One code path from request to text: the daemon report equals the
  // in-process call bytewise, and both name the estimated source.
  serve::AnalysisService reference;
  const auto expected = reference.analyze(estimated_request());
  EXPECT_EQ(response_body(analyzed), expected);
  EXPECT_NE(expected.find("occupancy input: estimated from CO2 mass balance"),
            std::string::npos);

  const auto bad = http_exchange(
      server.port(), "POST", "/analyze",
      R"({"data": "t.csv", "inputs": {"occupancy": "psychic"}})");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);
  EXPECT_NE(response_body(bad).find("inputs.occupancy"), std::string::npos);

  const auto shutdown =
      http_exchange(server.port(), "POST", "/shutdown", "");
  EXPECT_NE(shutdown.find("HTTP/1.1 200"), std::string::npos);
  runner.join();
}


}  // namespace
