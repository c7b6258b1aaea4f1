#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "io/serialize.h"
#include "support/error.h"

namespace pipemap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Round-trippable double formatting (17 significant digits suffice for
// IEEE binary64); "inf" spelled out so ParseNum can accept it.
std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void Bad(const std::string& what, const std::string& text) {
  throw InvalidArgument("FaultPlan: " + what + ": '" + text + "'");
}

double ParseNum(const std::string& token, const std::string& context) {
  if (token == "inf") return kInf;
  try {
    std::size_t idx = 0;
    const double v = std::stod(token, &idx);
    if (idx != token.size()) Bad("trailing characters in " + context, token);
    return v;
  } catch (const std::exception&) {
    Bad("malformed number in " + context, token);
  }
}

int ParseIndex(const std::string& token, const std::string& context) {
  try {
    std::size_t idx = 0;
    const int v = std::stoi(token, &idx);
    if (idx != token.size()) Bad("trailing characters in " + context, token);
    return v;
  } catch (const std::exception&) {
    Bad("malformed integer in " + context, token);
  }
}

// True while `t` falls inside the event's active window. Crashes never
// deactivate.
bool Active(const FaultEvent& e, double t) {
  if (t < e.time_s) return false;
  if (e.kind == FaultKind::kCrash) return true;
  return t < e.time_s + e.duration_s;
}

bool TargetsInstance(const FaultEvent& e, int module, int instance) {
  return e.module == module && (e.instance < 0 || e.instance == instance);
}

void SortByTime(FaultPlan& plan) {
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.module < b.module;
                   });
}

}  // namespace

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kSlowdown:
      return "slow";
    case FaultKind::kLinkDegrade:
      return "link";
  }
  return "unknown";
}

bool FaultPlan::CrashedAt(int module, int instance, double t) const {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kCrash && TargetsInstance(e, module, instance) &&
        t >= e.time_s) {
      return true;
    }
  }
  return false;
}

double FaultPlan::ComputeFactor(int module, int instance, double t) const {
  double factor = 1.0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kSlowdown && TargetsInstance(e, module, instance) &&
        Active(e, t)) {
      factor *= e.factor;
    }
  }
  return factor;
}

double FaultPlan::TransferFactor(int edge, double t) const {
  double factor = 1.0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kLinkDegrade && e.edge == edge && Active(e, t)) {
      factor *= e.factor;
    }
  }
  return factor;
}

int FaultPlan::CountKind(FaultKind kind) const {
  int n = 0;
  for (const FaultEvent& e : events) n += (e.kind == kind) ? 1 : 0;
  return n;
}

const FaultEvent* FaultPlan::FirstCrash() const {
  const FaultEvent* first = nullptr;
  for (const FaultEvent& e : events) {
    if (e.kind != FaultKind::kCrash) continue;
    if (first == nullptr || e.time_s < first->time_s) first = &e;
  }
  return first;
}

void FaultPlan::Validate(int num_modules) const {
  for (const FaultEvent& e : events) {
    if (!std::isfinite(e.time_s) || e.time_s < 0.0) {
      Bad("event time must be finite and non-negative", Num(e.time_s));
    }
    if (e.kind != FaultKind::kCrash &&
        (std::isnan(e.duration_s) || e.duration_s <= 0.0)) {
      Bad("event duration must be positive", Num(e.duration_s));
    }
    if (e.kind != FaultKind::kCrash &&
        (!std::isfinite(e.factor) || e.factor <= 0.0)) {
      Bad("event factor must be finite and positive", Num(e.factor));
    }
    if (e.instance < -1) Bad("instance must be >= -1", std::to_string(e.instance));
    if (e.kind == FaultKind::kLinkDegrade) {
      if (e.edge < 0 || (num_modules > 0 && e.edge >= num_modules - 1)) {
        Bad("edge index out of range", std::to_string(e.edge));
      }
    } else {
      if (e.module < 0 || (num_modules > 0 && e.module >= num_modules)) {
        Bad("module index out of range", std::to_string(e.module));
      }
    }
  }
}

std::string SerializeFaultPlan(const FaultPlan& plan) {
  std::ostringstream out;
  out << "pipemap-faults v1\n";
  out << "events " << plan.events.size() << "\n";
  for (const FaultEvent& e : plan.events) {
    out << ToString(e.kind) << " " << Num(e.time_s) << " " << Num(e.duration_s)
        << " " << (e.kind == FaultKind::kLinkDegrade ? e.edge : e.module) << " "
        << e.instance << " " << Num(e.factor) << "\n";
  }
  out << "end\n";
  return out.str();
}

FaultPlan ParseFaultPlan(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "pipemap-faults v1") {
    Bad("expected header 'pipemap-faults v1'", line);
  }
  std::size_t count = 0;
  {
    if (!std::getline(in, line)) Bad("missing 'events N' line", "");
    std::istringstream ls(line);
    std::string word;
    long long n = -1;
    if (!(ls >> word >> n) || word != "events" || n < 0) {
      Bad("malformed 'events N' line", line);
    }
    count = static_cast<std::size_t>(n);
  }
  FaultPlan plan;
  plan.events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) Bad("truncated plan", line);
    std::istringstream ls(line);
    std::string kind, time_tok, dur_tok, factor_tok;
    int target = 0;
    int instance = -1;
    if (!(ls >> kind >> time_tok >> dur_tok >> target >> instance >>
          factor_tok)) {
      Bad("malformed event line", line);
    }
    FaultEvent e;
    if (kind == "crash") {
      e.kind = FaultKind::kCrash;
    } else if (kind == "slow") {
      e.kind = FaultKind::kSlowdown;
    } else if (kind == "link") {
      e.kind = FaultKind::kLinkDegrade;
    } else {
      Bad("unknown event kind", line);
    }
    e.time_s = ParseNum(time_tok, "event time");
    e.duration_s = ParseNum(dur_tok, "event duration");
    (e.kind == FaultKind::kLinkDegrade ? e.edge : e.module) = target;
    e.instance = instance;
    e.factor = ParseNum(factor_tok, "event factor");
    plan.events.push_back(e);
  }
  if (!std::getline(in, line) || line != "end") Bad("missing 'end' line", line);
  SortByTime(plan);
  plan.Validate(/*num_modules=*/0);
  return plan;
}

FaultPlan ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    std::string token = spec.substr(pos, semi - pos);
    pos = semi + 1;
    // Trim surrounding whitespace.
    const std::size_t first = token.find_first_not_of(" \t");
    if (first == std::string::npos) {
      if (pos > spec.size()) break;
      continue;
    }
    token = token.substr(first, token.find_last_not_of(" \t") - first + 1);

    const std::size_t at = token.find('@');
    if (at == std::string::npos) Bad("event needs '@time'", token);
    const std::string kind = token.substr(0, at);
    const std::size_t colon = token.find(':', at);
    if (colon == std::string::npos) Bad("event needs ':target'", token);
    std::string when = token.substr(at + 1, colon - at - 1);
    std::string target = token.substr(colon + 1);

    FaultEvent e;
    if (kind == "crash") {
      e.kind = FaultKind::kCrash;
    } else if (kind == "slow") {
      e.kind = FaultKind::kSlowdown;
    } else if (kind == "link") {
      e.kind = FaultKind::kLinkDegrade;
    } else {
      Bad("unknown event kind (want crash/slow/link)", token);
    }

    const std::size_t plus = when.find('+');
    if (plus != std::string::npos) {
      if (e.kind == FaultKind::kCrash) {
        Bad("crash events are permanent and take no '+duration'", token);
      }
      e.duration_s = ParseNum(when.substr(plus + 1), "duration");
      when = when.substr(0, plus);
    } else if (e.kind != FaultKind::kCrash) {
      Bad("slow/link events need '@T+D'", token);
    }
    e.time_s = ParseNum(when, "event time");

    // Target: mM[.iI] for crash/slow, eE for link; xF factor suffix for
    // slow/link.
    if (e.kind != FaultKind::kCrash) {
      const std::size_t x = target.rfind('x');
      if (x == std::string::npos) Bad("slow/link events need 'xFactor'", token);
      e.factor = ParseNum(target.substr(x + 1), "factor");
      target = target.substr(0, x);
    }
    if (e.kind == FaultKind::kLinkDegrade) {
      if (target.size() < 2 || target[0] != 'e') {
        Bad("link target must be 'eE'", token);
      }
      e.edge = ParseIndex(target.substr(1), "edge index");
    } else {
      if (target.size() < 2 || target[0] != 'm') {
        Bad("target must be 'mM[.iI]'", token);
      }
      const std::size_t dot = target.find(".i");
      if (dot != std::string::npos) {
        e.instance = ParseIndex(target.substr(dot + 2), "instance index");
        target = target.substr(0, dot);
      }
      e.module = ParseIndex(target.substr(1), "module index");
    }
    plan.events.push_back(e);
    if (pos > spec.size()) break;
  }
  if (plan.events.empty()) Bad("empty fault spec", spec);
  SortByTime(plan);
  plan.Validate(/*num_modules=*/0);
  return plan;
}

FaultPlan LoadFaultPlan(const std::string& arg) {
  if (std::ifstream probe(arg); probe.good()) {
    return ParseFaultPlan(ReadTextFile(arg));
  }
  return ParseFaultSpec(arg);
}

}  // namespace pipemap
