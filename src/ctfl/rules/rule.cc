#include "ctfl/rules/rule.h"

#include <utility>

#include "ctfl/util/logging.h"

namespace ctfl {

Rule Rule::Atom(Predicate predicate) {
  Rule r;
  r.kind_ = Kind::kAtom;
  r.atom_ = predicate;
  return r;
}

Rule Rule::Conj(std::vector<Rule> children) {
  CTFL_CHECK(!children.empty());
  if (children.size() == 1) return std::move(children[0]);
  Rule r;
  r.kind_ = Kind::kConj;
  r.children_ = std::move(children);
  return r;
}

Rule Rule::Disj(std::vector<Rule> children) {
  CTFL_CHECK(!children.empty());
  if (children.size() == 1) return std::move(children[0]);
  Rule r;
  r.kind_ = Kind::kDisj;
  r.children_ = std::move(children);
  return r;
}

Rule Rule::True() {
  Rule r;
  r.kind_ = Kind::kTrue;
  return r;
}

Rule Rule::False() {
  Rule r;
  r.kind_ = Kind::kFalse;
  return r;
}

std::string Rule::ToString(const FeatureSchema& schema) const {
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return atom_.ToString(schema);
    case Kind::kConj:
    case Kind::kDisj: {
      const char* sep = kind_ == Kind::kConj ? " ^ " : " v ";
      std::string out = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out += sep;
        out += children_[i].ToString(schema);
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

}  // namespace ctfl
