#include "digest.hpp"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) {
      return fields;
    }
    start = tab + 1;
  }
}

double parse_double(const std::string& text, const std::string& where) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::runtime_error(where + ": bad number '" + text + "'");
  }
  return v;
}

std::uint64_t parse_u64(const std::string& text, const std::string& where) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end != text.c_str() + text.size() || errno == ERANGE) {
    throw std::runtime_error(where + ": bad count '" + text + "'");
  }
  return v;
}

}  // namespace

RunDigest digest_of(const greencap::core::ExperimentResult& result) {
  RunDigest d;
  d.time_s = result.time_s;
  d.total_energy_j = result.total_energy_j;
  d.tasks_completed = result.stats.tasks_completed;
  d.gpu_tasks = result.gpu_tasks;
  return d;
}

bool same_bits(const RunDigest& a, const RunDigest& b) {
  return std::bit_cast<std::uint64_t>(a.time_s) == std::bit_cast<std::uint64_t>(b.time_s) &&
         std::bit_cast<std::uint64_t>(a.total_energy_j) ==
             std::bit_cast<std::uint64_t>(b.total_energy_j) &&
         a.tasks_completed == b.tasks_completed && a.gpu_tasks == b.gpu_tasks;
}

std::string format_digest(const RunDigest& d) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%.17g\t%.17g\t%llu\t%llu", d.time_s, d.total_energy_j,
                static_cast<unsigned long long>(d.tasks_completed),
                static_cast<unsigned long long>(d.gpu_tasks));
  return buf;
}

ReferenceTable load_reference(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error("cannot open reference file " + path);
  }
  ReferenceTable table;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const std::string where = path + ":" + std::to_string(lineno);
    const std::vector<std::string> f = split_tabs(line);
    if (f.size() != 5) {
      throw std::runtime_error(where + ": expected 5 tab-separated fields");
    }
    RunDigest d;
    d.time_s = parse_double(f[1], where);
    d.total_energy_j = parse_double(f[2], where);
    d.tasks_completed = parse_u64(f[3], where);
    d.gpu_tasks = parse_u64(f[4], where);
    if (!table.emplace(f[0], d).second) {
      throw std::runtime_error(where + ": duplicate key '" + f[0] + "'");
    }
  }
  return table;
}

void write_reference(const std::string& path, const ReferenceTable& table) {
  std::ofstream out{path};
  out << "# key\ttime_s\ttotal_energy_j\ttasks_completed\tgpu_tasks (doubles at %.17g)\n";
  for (const auto& [key, d] : table) {
    out << key << '\t' << format_digest(d) << '\n';
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write reference file " + path);
  }
}

std::string check_reference(const ReferenceTable& table, const std::string& key,
                            const RunDigest& digest, bool required) {
  const auto it = table.find(key);
  if (it == table.end()) {
    return required ? "no reference for '" + key + "'" : std::string{};
  }
  if (same_bits(it->second, digest)) {
    return {};
  }
  std::ostringstream oss;
  oss << "'" << key << "': got " << format_digest(digest) << ", reference "
      << format_digest(it->second);
  return oss.str();
}

}  // namespace perfbench
