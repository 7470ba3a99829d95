// ctfl_replay — trace-driven record/replay harness (DESIGN.md §14).
//
// Subcommands:
//   record    --out FILE.ctflr [score flags] [--queries N]
//             [--bundle-out FILE.ctflb]
//       Runs the CTFL pipeline on a generated benchmark (same knob
//       surface as `ctfl score`), persists a contribution bundle, drives
//       a recorded query stream through a tapped QueryService, and
//       writes a replay file capturing the run spec, its outcome
//       (fingerprints + bit-exact scores), and every request/response
//       digest.
//   replay    --file FILE.ctflr [--matrix] [--cell NAME] [--scratch DIR]
//             [--no-served] [--bundle FILE.ctflb]
//       Re-executes the recorded run and asserts the bit-identity
//       contract: byte-identical rendered scores and an equal RunReport
//       fingerprint, then replays the query stream digest-for-digest.
//       --matrix runs the full differential matrix (trace ISA, threads
//       1/2/8, faulty-vs-clean, batch vs one-shot vs served); --cell runs
//       one named cell. Exit status is nonzero on
//       any divergence. --bundle replays a query-only file (no spec)
//       against an existing bundle.
//   gen-tests --file FILE.ctflr [--out FILE]
//       Expands the replay file into its differential regression
//       manifest: one `cell NAME: DESCRIPTION` line per matrix cell,
//       each runnable via `ctfl_replay replay --file F --cell NAME`.
//       tests/replay_test.cc executes the same matrix under ctest.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ctfl/replay/recorder.h"
#include "ctfl/replay/replay_file.h"
#include "ctfl/replay/runner.h"
#include "ctfl/serve/service.h"
#include "ctfl/store/query_engine.h"
#include "ctfl/util/cpu_features.h"
#include "ctfl/util/flags.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status RunRecord(int argc, const char* const* argv) {
  FlagParser flags(replay::RunSpecFlags(replay::DataSource::kGenerate,
                                        {{"out", ""},
                                         {"bundle-out", ""},
                                         {"trace-isa", "auto"},
                                         {"queries", "8"}}));
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  const std::string out = flags.GetString("out");
  if (out.empty()) return Status::InvalidArgument("--out is required");
  std::string bundle_out = flags.GetString("bundle-out");
  if (bundle_out.empty()) bundle_out = out + ".ctflb";
  CTFL_ASSIGN_OR_RETURN(int queries, flags.GetInt("queries"));
  CTFL_ASSIGN_OR_RETURN(
      const replay::RunSpec spec,
      replay::ParseRunSpecFlags(flags, replay::DataSource::kGenerate));

  replay::RunOverrides overrides;
  overrides.bundle_out = bundle_out;
  CTFL_ASSIGN_OR_RETURN(replay::RunArtifacts artifacts,
                        replay::ExecuteRunSpec(spec, overrides));
  std::printf("run fingerprint %s\n%s",
              StrFormat("0x%016llx",
                        static_cast<unsigned long long>(
                            artifacts.outcome.run_fingerprint))
                  .c_str(),
              artifacts.score_table.c_str());
  std::printf("bundle (%zu bytes) -> %s\n", artifacts.bundle_bytes,
              bundle_out.c_str());

  // Drive the query stream through a tapped QueryService — the same
  // capture point a recording ctfl_serve uses — so the recorded digests
  // are exactly what any replay leg must reproduce.
  replay::ReplayRecorder recorder;
  recorder.CaptureRun(spec, artifacts.outcome);
  CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                        store::QueryEngine::Open(bundle_out));
  const size_t num_tests = engine.bundle().tests.size();
  serve::ServiceConfig service_config;
  service_config.request_tap = recorder.Tap();
  serve::QueryService service(std::move(engine), service_config);

  auto handle = [&service](serve::Request request) {
    return service.Handle(request);
  };
  {
    serve::Request request;  // EVALUATE at the originating parameters
    request.op = serve::Op::kEvaluate;
    handle(request);
  }
  {
    serve::Request request;  // EVALUATE off the origin point
    request.op = serve::Op::kEvaluate;
    request.evaluate.options.tau_w = 0.8;
    handle(request);
  }
  {
    serve::Request request;  // STATS: replayed, never digest-checked
    request.op = serve::Op::kStats;
    handle(request);
  }
  for (int i = 0; i < queries && num_tests > 0; ++i) {
    serve::Request request;
    request.op = serve::Op::kRelatedForTest;
    request.related_for_test.test_index =
        static_cast<uint64_t>(i) % num_tests;
    // Alternate the origin threshold and a looser one across the stream.
    request.related_for_test.options.tau_w = (i % 2 == 0) ? -1.0 : 0.8;
    request.related_for_test.options.max_records = 3;
    handle(request);
  }
  for (size_t i = 0; i < 2 && i < artifacts.test.size(); ++i) {
    serve::Request request;  // RELATED: deployed inference on the replica
    request.op = serve::Op::kRelated;
    request.related.instance = artifacts.test.instance(i);
    request.related.options.max_records = 3;
    handle(request);
  }

  CTFL_RETURN_IF_ERROR(recorder.WriteTo(out));
  std::printf("recorded %zu query events -> %s\n", recorder.num_events(),
              out.c_str());
  return Status::OK();
}

Status RunReplay(int argc, const char* const* argv) {
  FlagParser flags({{"file", ""},
                    {"matrix", "false"},
                    {"cell", ""},
                    {"scratch", "."},
                    {"no-served", "false"},
                    {"trace-isa", "auto"},
                    {"bundle", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  CTFL_RETURN_IF_ERROR(ApplyTraceIsaFlag(flags.GetString("trace-isa")));
  if (flags.GetString("file").empty()) {
    return Status::InvalidArgument("--file is required");
  }
  CTFL_ASSIGN_OR_RETURN(replay::ReplayFile file,
                        replay::ReadReplayFile(flags.GetString("file")));

  // Query-only file: replay the stream against a caller-supplied bundle.
  if (!file.has_spec) {
    const std::string bundle = flags.GetString("bundle");
    if (bundle.empty()) {
      return Status::InvalidArgument(
          "replay file has no run spec; --bundle is required to replay "
          "its query stream");
    }
    CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                          store::QueryEngine::Open(bundle));
    serve::QueryService service(std::move(engine));
    CTFL_ASSIGN_OR_RETURN(
        replay::EventReplayResult result,
        replay::ReplayEventsThroughService(file.events, service));
    if (!result.ok()) {
      return Status::FailedPrecondition("queries: " + result.detail);
    }
    std::printf("queries: %zu replayed, %zu digests matched\n",
                result.replayed, result.digest_checked);
    return Status::OK();
  }

  replay::MatrixOptions options;
  options.scratch_dir = flags.GetString("scratch");
  options.only_cell = flags.GetString("cell");
  options.include_served = !flags.GetBool("no-served");
  if (flags.GetBool("matrix") || !options.only_cell.empty()) {
    CTFL_ASSIGN_OR_RETURN(std::vector<replay::CellResult> results,
                          replay::RunMatrix(file, options));
    if (results.empty()) {
      return Status::NotFound("no matrix cell matched " + options.only_cell);
    }
    size_t failed = 0;
    for (const replay::CellResult& result : results) {
      std::printf("cell %s: %s (%s)\n", result.name.c_str(),
                  result.pass ? "PASS" : "FAIL", result.detail.c_str());
      if (!result.pass) ++failed;
    }
    if (failed != 0) {
      return Status::FailedPrecondition(
          StrFormat("%zu of %zu matrix cells diverged", failed,
                    results.size()));
    }
    std::printf("matrix: %zu cells, all bit-identical\n", results.size());
    return Status::OK();
  }

  // Default mode: base replay + streamed query replay.
  replay::RunOverrides overrides;
  const std::string bundle_path =
      options.scratch_dir + "/replay_base.ctflb";
  if (!file.events.empty()) overrides.bundle_out = bundle_path;
  CTFL_ASSIGN_OR_RETURN(replay::RunArtifacts artifacts,
                        replay::ExecuteRunSpec(file.spec, overrides));
  if (!file.has_outcome) {
    return Status::InvalidArgument(
        "replay file has a spec but no recorded outcome to compare to");
  }
  CTFL_RETURN_IF_ERROR(
      replay::CompareOutcomes(file.outcome, artifacts.outcome));
  std::fputs(artifacts.score_table.c_str(), stdout);
  std::printf("scores: bit-identical\n");
  std::printf("run fingerprint: match (0x%016llx)\n",
              static_cast<unsigned long long>(
                  artifacts.outcome.run_fingerprint));
  if (!file.events.empty()) {
    CTFL_ASSIGN_OR_RETURN(store::QueryEngine engine,
                          store::QueryEngine::Open(bundle_path));
    serve::QueryService service(std::move(engine));
    CTFL_ASSIGN_OR_RETURN(
        replay::EventReplayResult result,
        replay::ReplayEventsThroughService(file.events, service));
    if (!result.ok()) {
      return Status::FailedPrecondition("queries: " + result.detail);
    }
    std::printf("queries: %zu replayed, %zu digests matched\n",
                result.replayed, result.digest_checked);
  }
  return Status::OK();
}

Status RunGenTests(int argc, const char* const* argv) {
  FlagParser flags({{"file", ""}, {"out", ""}});
  CTFL_RETURN_IF_ERROR(flags.Parse(argc, argv));
  const std::string path = flags.GetString("file");
  if (path.empty()) return Status::InvalidArgument("--file is required");
  CTFL_ASSIGN_OR_RETURN(replay::ReplayFile file,
                        replay::ReadReplayFile(path));
  const std::vector<replay::MatrixCell> cells =
      replay::GenerateMatrix(file);
  if (cells.empty()) {
    return Status::InvalidArgument(
        "replay file has no spec+outcome; nothing to expand");
  }
  std::string manifest = StrFormat(
      "# differential regression matrix generated from %s\n"
      "# run a cell:  ctfl_replay replay --file %s --cell NAME\n"
      "# run all:     ctfl_replay replay --file %s --matrix\n"
      "# every cell asserts bit-identical scores + fingerprints except\n"
      "# 'clean', which asserts the fingerprint DIVERGES without faults\n",
      path.c_str(), path.c_str(), path.c_str());
  for (const replay::MatrixCell& cell : cells) {
    manifest += StrFormat("cell %s: %s\n", cell.name.c_str(),
                          cell.description.c_str());
  }
  const std::string out = flags.GetString("out");
  if (out.empty()) {
    std::fputs(manifest.c_str(), stdout);
  } else {
    std::ofstream f(out);
    if (!f) return Status::IoError("cannot write " + out);
    f << manifest;
    std::printf("matrix manifest (%zu cells) -> %s\n", cells.size(),
                out.c_str());
  }
  return Status::OK();
}

int Main(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ctfl_replay <record|replay|gen-tests> [flags]\n");
    return 1;
  }
  const std::string command = argv[1];
  Status status;
  if (command == "record") {
    status = RunRecord(argc - 2, argv + 2);
  } else if (command == "replay") {
    status = RunReplay(argc - 2, argv + 2);
  } else if (command == "gen-tests") {
    status = RunGenTests(argc - 2, argv + 2);
  } else {
    status = Status::InvalidArgument("unknown subcommand " + command);
  }
  return status.ok() ? 0 : Fail(status);
}

}  // namespace
}  // namespace ctfl

int main(int argc, char** argv) {
  return ctfl::Main(argc, const_cast<const char* const*>(argv));
}
