#ifndef CTFL_SERVE_RENDER_H_
#define CTFL_SERVE_RENDER_H_

// Canonical text rendering of query results, shared by the one-shot CLI
// (`ctfl_cli query`), its batch mode, and the query-service client. Both
// front ends print these exact strings, so a served response renders
// byte-identically to the one-shot CLI over the same bundle — the CI
// smoke test diffs the two outputs verbatim.

#include <string>
#include <vector>

#include "ctfl/store/query_engine.h"

namespace ctfl {
namespace serve {

/// The evaluation block of `ctfl_cli query`: the "scores at tau_w=..."
/// table, the reproduction check against the originating run (printed only
/// when the evaluated parameters equal the originating ones and origin
/// scores exist), the accuracy/cost lines, uncovered scenarios, and the
/// per-participant interpretability summaries.
std::string RenderEvaluation(const store::QueryReport& report,
                             double origin_tau_w,
                             int origin_delta,
                             const std::vector<double>& origin_micro,
                             const std::vector<double>& origin_macro);

/// "\nrelated-record lookups:\n" header.
std::string RenderRelatedHeader();

/// One "instance N: predicted=..." line plus its materialized record refs.
std::string RenderRelatedLookup(size_t index,
                                const store::RelatedResult& related,
                                const std::vector<std::string>& names);

}  // namespace serve
}  // namespace ctfl

#endif  // CTFL_SERVE_RENDER_H_
