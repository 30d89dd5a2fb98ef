#include "obs/analysis/baseline.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json.h"

namespace mitos::obs::analysis {

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  *out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string BaselineFile::ToJson() const {
  std::string out = "{\"schema\":" + std::to_string(schema) + ",";
  out += "\"figure\":\"" + JsonEscape(figure) + "\",";
  out += "\"entries\":[\n";
  bool first = true;
  for (const BaselineEntry& entry : entries) {
    if (!first) out += ",\n";
    first = false;
    out += " {\"key\":\"" + JsonEscape(entry.key) + "\"";
    out += ",\"engine\":\"" + JsonEscape(entry.engine) + "\"";
    out += ",\"machines\":" + std::to_string(entry.machines);
    out += ",\"total_seconds\":";
    AppendDouble(&out, entry.total_seconds);
    out += ",\"decomposition\":{";
    bool first_kind = true;
    for (const auto& [kind, seconds] : entry.decomposition) {
      if (!first_kind) out += ',';
      first_kind = false;
      out += '"' + JsonEscape(kind) + "\":";
      AppendDouble(&out, seconds);
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

StatusOr<BaselineFile> BaselineFile::Parse(const std::string& json_text) {
  StatusOr<json::Value> parsed = json::Value::Parse(json_text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("baseline: top level must be an object");
  }
  BaselineFile file;
  file.schema = static_cast<int>(parsed->NumberOr("schema", 0));
  file.figure = parsed->StringOr("figure", "");
  const json::Value* entries = parsed->Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("baseline: missing \"entries\" array");
  }
  for (const json::Value& item : entries->array()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("baseline: entry must be an object");
    }
    BaselineEntry entry;
    entry.key = item.StringOr("key", "");
    if (entry.key.empty()) {
      return Status::InvalidArgument("baseline: entry without a key");
    }
    entry.engine = item.StringOr("engine", "");
    entry.machines = static_cast<int>(item.NumberOr("machines", 0));
    if (const json::Value* decomposition = item.Find("decomposition");
        decomposition != nullptr && decomposition->is_object()) {
      for (const auto& [kind, value] : decomposition->object()) {
        if (value.is_number()) entry.decomposition[kind] = value.number();
      }
    }
    entry.total_seconds = item.NumberOr("total_seconds", 0);
    file.entries.push_back(std::move(entry));
  }
  return file;
}

StatusOr<BaselineFile> BaselineFile::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str());
}

BaselineDiff Compare(const BaselineFile& base, const BaselineFile& current,
                     double threshold) {
  BaselineDiff diff;
  std::map<std::string, const BaselineEntry*> current_by_key;
  for (const BaselineEntry& entry : current.entries) {
    current_by_key[entry.key] = &entry;
  }
  std::map<std::string, const BaselineEntry*> base_by_key;
  for (const BaselineEntry& entry : base.entries) {
    base_by_key[entry.key] = &entry;
  }

  for (const BaselineEntry& entry : base.entries) {
    auto it = current_by_key.find(entry.key);
    if (it == current_by_key.end()) {
      diff.missing.push_back(entry.key);
      continue;
    }
    BaselineDiff::Row row;
    row.key = entry.key;
    row.base_seconds = entry.total_seconds;
    row.current_seconds = it->second->total_seconds;
    row.ratio = entry.total_seconds > 0
                    ? row.current_seconds / entry.total_seconds
                    : 1;
    row.regression = row.ratio > 1 + threshold;
    row.improvement = row.ratio < 1 - threshold;
    diff.regressions += row.regression ? 1 : 0;
    diff.improvements += row.improvement ? 1 : 0;
    diff.rows.push_back(std::move(row));
  }
  for (const BaselineEntry& entry : current.entries) {
    if (base_by_key.find(entry.key) == base_by_key.end()) {
      diff.added.push_back(entry.key);
    }
  }
  return diff;
}

std::string BaselineDiff::ToString() const {
  std::string out;
  char buf[256];
  out += "       base    current    ratio  run\n";
  for (const Row& row : rows) {
    const char* mark = row.regression ? " REGRESSED"
                       : row.improvement ? " improved"
                                         : "";
    std::snprintf(buf, sizeof(buf), "  %9.4fs %9.4fs  %6.3fx  %s%s\n",
                  row.base_seconds, row.current_seconds, row.ratio,
                  row.key.c_str(), mark);
    out += buf;
  }
  for (const std::string& key : missing) {
    out += "  MISSING from current run: " + key + "\n";
  }
  for (const std::string& key : added) {
    out += "  new (not in baseline): " + key + "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  %zu runs compared, %d regressions, %d improvements\n",
                rows.size(), regressions, improvements);
  out += buf;
  return out;
}

}  // namespace mitos::obs::analysis
