#include "fault/fault_plan.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

namespace greencap::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void fail(const std::string& what) { throw std::invalid_argument("fault spec: " + what); }

FaultKind kind_from_string(const std::string& s) {
  if (s == "capfail") return FaultKind::kCapWriteFail;
  if (s == "drift") return FaultKind::kCapDrift;
  if (s == "energyreset") return FaultKind::kEnergyReset;
  if (s == "straggler") return FaultKind::kStraggler;
  if (s == "dropout") return FaultKind::kGpuDropout;
  fail("unknown fault kind '" + s + "'");
}

CapError code_from_string(const std::string& s) {
  if (s == "insufficient_power") return CapError::kInsufficientPower;
  if (s == "not_supported") return CapError::kNotSupported;
  if (s == "no_permission") return CapError::kNoPermission;
  fail("unknown cap error code '" + s + "'");
}

double parse_double(const std::string& s, const std::string& key) {
  double v = 0.0;
  std::size_t pos = 0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::invalid_argument&) {
    fail("bad numeric value for '" + key + "': " + s);
  } catch (const std::out_of_range&) {
    fail("out-of-range value for '" + key + "': " + s);
  }
  if (pos != s.size()) fail("trailing junk in value for '" + key + "': " + s);
  // nan and inf are never a time, probability, factor or wattage; an
  // open-ended window omits `until`.
  if (!std::isfinite(v)) fail("'" + key + "' must be finite, got " + s);
  return v;
}

int parse_int(const std::string& s, const std::string& key) {
  int v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec == std::errc::result_out_of_range) fail("out-of-range value for '" + key + "': " + s);
  if (ec != std::errc{} || ptr != end) fail("'" + key + "' must be an integer, got " + s);
  return v;
}

// The one key table: both grammars set every event member from its source
// text here (the spec form's `kind@gpuN` prefix included).
void set_key(FaultEvent& e, const std::string& key, const std::string& value) {
  if (key == "kind") {
    e.kind = kind_from_string(value);
  } else if (key == "gpu") {
    e.gpu = parse_int(value, key);
    if (e.gpu < 0) fail("negative gpu index " + value);
  } else if (key == "t") {
    e.t = parse_double(value, key);
  } else if (key == "until") {
    e.until = parse_double(value, key);
  } else if (key == "p") {
    e.probability = parse_double(value, key);
  } else if (key == "factor") {
    e.factor = parse_double(value, key);
  } else if (key == "watts") {
    e.watts = parse_double(value, key);
  } else if (key == "code") {
    e.code = code_from_string(value);
  } else if (key == "count") {
    e.count = parse_int(value, key);
  } else if (key == "perm") {
    e.permanent = value == "true" || (value != "false" && parse_int(value, key) != 0);
  } else {
    fail("unknown key '" + key + "'");
  }
}

FaultEvent parse_event(const std::string& text) {
  FaultEvent e;
  const auto at = text.find('@');
  if (at == std::string::npos) fail("event '" + text + "' is missing '@target'");
  set_key(e, "kind", text.substr(0, at));

  const auto colon = text.find(':', at);
  const std::string target =
      colon == std::string::npos ? text.substr(at + 1) : text.substr(at + 1, colon - at - 1);
  if (target.rfind("gpu", 0) == 0 && target.size() > 3) {
    set_key(e, "gpu", target.substr(3));
  } else if (target != "any" && target != "*") {
    fail("bad target '" + target + "' (want gpuN or any)");
  }

  if (colon != std::string::npos) {
    std::stringstream pairs{text.substr(colon + 1)};
    std::string pair;
    while (std::getline(pairs, pair, ',')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) fail("expected key=value, got '" + pair + "'");
      const std::string key = pair.substr(0, eq);
      if (key == "kind" || key == "gpu") fail("'" + key + "' goes before ':' in '" + text + "'");
      set_key(e, key, pair.substr(eq + 1));
    }
  }
  return e;
}

// --- minimal JSON reader (objects, arrays, strings, numbers, bools) --------
//
// The repo only has JSON *writers*; the fault-plan file form needs a reader.
// This handles exactly the subset the documented schema uses and rejects
// everything else loudly.
class JsonReader {
 public:
  explicit JsonReader(std::istream& is) {
    std::ostringstream os;
    os << is.rdbuf();
    text_ = os.str();
  }

  FaultPlan read_plan() {
    skip_ws();
    expect('{');
    FaultPlan plan;
    std::vector<FaultEvent> events;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) expect(',');
      first = false;
      skip_ws();
      const std::string key = read_string();
      skip_ws();
      expect(':');
      if (key == "events") {
        events = read_events();
      } else {
        fail("json: unknown top-level key '" + key + "'");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("json: trailing content after document");
    return FaultPlan{std::move(events)};
  }

 private:
  std::vector<FaultEvent> read_events() {
    skip_ws();
    expect('[');
    std::vector<FaultEvent> events;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return events;
    }
    while (true) {
      events.push_back(read_event());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("json: expected ',' or ']' in events array");
    }
    return events;
  }

  // Every member goes through set_key by its source text; only "kind" and
  // "code" take JSON strings.
  FaultEvent read_event() {
    skip_ws();
    expect('{');
    FaultEvent e;
    bool have_kind = false;
    bool first = true;
    while (true) {
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        break;
      }
      if (!first) expect(',');
      first = false;
      skip_ws();
      const std::string key = read_string();
      skip_ws();
      expect(':');
      skip_ws();
      const bool quoted = peek() == '"';
      set_key(e, key, quoted ? read_string() : read_token());
      if (quoted != (key == "kind" || key == "code")) {
        fail("json: \"" + key + "\" takes a " + (quoted ? "number" : "string"));
      }
      have_kind = have_kind || key == "kind";
    }
    if (!have_kind) fail("json: event is missing \"kind\"");
    return e;
  }

  std::string read_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("json: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') fail("json: escape sequences not supported in fault specs");
      out.push_back(c);
    }
    return out;
  }

  // A number or literal, as written.
  std::string read_token() {
    const std::size_t start = pos_;
    constexpr std::string_view kEnd{",}] \t\r\n"};
    while (pos_ < text_.size() && kEnd.find(text_[pos_]) == std::string_view::npos) ++pos_;
    if (pos_ == start) fail("json: expected a value");
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char take() { return pos_ < text_.size() ? text_[pos_++] : '\0'; }
  void expect(char c) {
    if (take() != c) fail(std::string("json: expected '") + c + "'");
  }

  std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCapWriteFail: return "capfail";
    case FaultKind::kCapDrift: return "drift";
    case FaultKind::kEnergyReset: return "energyreset";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kGpuDropout: return "dropout";
  }
  return "?";
}

const char* to_string(CapError error) {
  switch (error) {
    case CapError::kInsufficientPower: return "insufficient_power";
    case CapError::kNotSupported: return "not_supported";
    case CapError::kNoPermission: return "no_permission";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  std::ostringstream os;
  os << fault::to_string(kind) << '@' << (gpu < 0 ? std::string{"any"} : "gpu" + std::to_string(gpu));
  const char* sep = ":";
  auto emit = [&](const char* key, const std::string& value) {
    os << sep << key << '=' << value;
    sep = ",";
  };
  auto num = [](double v) {  // shortest form that parses back to v
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  if (t != 0.0) emit("t", num(t));
  if (std::isfinite(until)) emit("until", num(until));
  if (probability != 1.0) emit("p", num(probability));
  if (factor != 1.0) emit("factor", num(factor));
  if (watts != 0.0) emit("watts", num(watts));
  if (kind == FaultKind::kCapWriteFail && code != CapError::kInsufficientPower) {
    emit("code", fault::to_string(code));
  }
  if (count != 0) emit("count", std::to_string(count));
  if (permanent) emit("perm", "1");
  return os.str();
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  if (spec.empty()) return {};
  if (spec.front() == '@') {
    const std::string path = spec.substr(1);
    std::ifstream is{path};
    if (!is) fail("cannot open fault plan file: " + path);
    return parse_json(is);
  }
  std::vector<FaultEvent> events;
  std::stringstream parts{spec};
  std::string part;
  while (std::getline(parts, part, ';')) {
    if (part.empty()) continue;
    events.push_back(parse_event(part));
  }
  return FaultPlan{std::move(events)};
}

FaultPlan FaultPlan::parse_json(std::istream& is) { return JsonReader{is}.read_plan(); }

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    if (!out.empty()) out += ';';
    out += e.to_string();
  }
  return out;
}

void FaultPlan::normalise() {
  for (FaultEvent& e : events_) {
    if (e.until <= e.t) e.until = kInf;
  }
}

void FaultPlan::validate() const {
  for (const FaultEvent& e : events_) {
    if (e.gpu < 0 && e.kind != FaultKind::kCapWriteFail && e.kind != FaultKind::kStraggler) {
      fail(std::string{fault::to_string(e.kind)} + " needs an explicit gpuN target");
    }
    if (e.t < 0.0) fail("negative activation time");
    if (e.probability < 0.0 || e.probability > 1.0) fail("probability must be in [0, 1]");
    if (e.count < 0) fail("count must be >= 0");
    switch (e.kind) {
      case FaultKind::kCapDrift:
        if (e.watts == 0.0 && e.factor == 1.0) fail("drift needs factor or watts");
        if (e.watts < 0.0 || e.factor <= 0.0) fail("drift factor/watts must be positive");
        break;
      case FaultKind::kStraggler:
        if (e.factor < 1.0) fail("straggler factor must be >= 1");
        break;
      default:
        break;
    }
  }
}

}  // namespace greencap::fault
