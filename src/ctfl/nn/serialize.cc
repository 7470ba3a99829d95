#include "ctfl/nn/serialize.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "ctfl/data/schema.h"
#include "ctfl/util/file_io.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace {

// v1: config + params. v2 adds a schema_fingerprint line so a model file
// refuses to load against a schema other than the one it was trained on.
// Loading still accepts v1 files (no fingerprint check possible).
constexpr int kFormatVersion = 2;

}  // namespace

Status SaveLogicalNet(const LogicalNet& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  const LogicalNetConfig& config = net.config();
  out << "ctfl-model " << kFormatVersion << "\n";
  out << "schema_fingerprint " << SchemaFingerprint(*net.schema()) << "\n";
  out << "tau_d " << config.tau_d << "\n";
  out << "fan_in " << config.fan_in << "\n";
  out << "input_skip " << (config.input_skip ? 1 : 0) << "\n";
  out << "seed " << config.seed << "\n";
  out << "linear_init_scale " << std::setprecision(17)
      << config.linear_init_scale << "\n";
  out << "layers " << config.logic_layers.size();
  for (const auto& [conj, disj] : config.logic_layers) {
    out << " " << conj << " " << disj;
  }
  out << "\n";
  const std::vector<double> params = net.GetParameters();
  out << "params " << params.size() << "\n";
  out << std::setprecision(17);
  for (size_t i = 0; i < params.size(); ++i) {
    out << params[i] << (i + 1 == params.size() ? "\n" : " ");
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<LogicalNet> LoadLogicalNet(SchemaPtr schema,
                                  const std::string& path) {
  CTFL_ASSIGN_OR_RETURN(const std::string text, ReadFileBytes(path));
  std::istringstream in(text);

  std::string tag;
  int version = 0;
  in >> tag >> version;
  if (tag != "ctfl-model") {
    return Status::InvalidArgument(path + ": not a ctfl model file");
  }
  if (version < 1 || version > kFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("%s: unsupported version %d", path.c_str(), version));
  }

  LogicalNetConfig config;
  std::string key;
  config.logic_layers.clear();
  while (in >> key) {
    if (key == "schema_fingerprint") {
      uint64_t fingerprint = 0;
      in >> fingerprint;
      const uint64_t expected = SchemaFingerprint(*schema);
      if (in && fingerprint != expected) {
        return Status::InvalidArgument(StrFormat(
            "%s: schema fingerprint mismatch — the model was trained on a "
            "different schema (file %llu, supplied schema %llu)",
            path.c_str(), static_cast<unsigned long long>(fingerprint),
            static_cast<unsigned long long>(expected)));
      }
    } else if (key == "tau_d") {
      in >> config.tau_d;
    } else if (key == "fan_in") {
      in >> config.fan_in;
    } else if (key == "input_skip") {
      int flag = 1;
      in >> flag;
      config.input_skip = flag != 0;
    } else if (key == "seed") {
      in >> config.seed;
    } else if (key == "linear_init_scale") {
      in >> config.linear_init_scale;
    } else if (key == "layers") {
      size_t num_layers = 0;
      in >> num_layers;
      // Stops at the first value the file does not hold.
      for (size_t l = 0; l < num_layers && in; ++l) {
        int conj = 0, disj = 0;
        in >> conj >> disj;
        config.logic_layers.emplace_back(conj, disj);
      }
    } else if (key == "params") {
      // Every parameter takes at least two of the bytes left after the
      // count (a separator and a digit), so a larger count is refused
      // before anything is sized from it, and the values are read before
      // the net is built.
      size_t count = 0;
      if (!(in >> count)) {
        return Status::InvalidArgument(path + ": malformed value");
      }
      const std::streamoff at = in.tellg();
      const size_t left = at < 0 ? 0 : text.size() - static_cast<size_t>(at);
      if (count > left / 2) {
        return Status::InvalidArgument(path +
                                       ": params count exceeds the file");
      }
      const Status shape = ValidateNetShape(*schema, config, count);
      if (!shape.ok()) {
        return Status::InvalidArgument(path + ": " + shape.message());
      }
      std::vector<double> params(count);
      for (double& v : params) {
        if (!(in >> v)) {
          return Status::InvalidArgument(path + ": truncated parameters");
        }
      }
      LogicalNet net(std::move(schema), config);
      net.SetParameters(params);
      return net;
    } else {
      return Status::InvalidArgument(path + ": unknown key " + key);
    }
    if (!in) return Status::InvalidArgument(path + ": malformed value");
  }
  return Status::InvalidArgument(path + ": missing params section");
}

}  // namespace ctfl
