#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

namespace vdc::lint {
namespace {

// ---------------------------------------------------------------------------
// shared helpers

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

void emit(SourceFile& file, std::vector<Finding>& out, std::string_view rule, int line, int col,
          std::string message) {
  Finding f;
  f.file = file.rel;
  f.line = line;
  f.col = col;
  f.rule = std::string(rule);
  f.message = std::move(message);
  f.suppressed = file.consume_suppression(rule, line);
  out.push_back(std::move(f));
}

/// Splits an identifier into lowercase segments on underscores and
/// lower-to-upper camel boundaries; trailing member underscores are
/// dropped. "kCapacityTolGhz" -> {k, capacity, tol, ghz};
/// "busy_time_" -> {busy, time}.
std::vector<std::string> segments(std::string_view name) {
  std::vector<std::string> segs;
  std::string cur;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '_') {
      if (!cur.empty()) segs.push_back(cur);
      cur.clear();
      continue;
    }
    const bool upper = std::isupper(static_cast<unsigned char>(c)) != 0;
    if (upper && !cur.empty() &&
        std::islower(static_cast<unsigned char>(cur.back())) != 0) {
      segs.push_back(cur);
      cur.clear();
    }
    cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (!cur.empty()) segs.push_back(cur);
  return segs;
}

/// Physical-quantity stems: a floating declaration whose name contains one
/// of these (as a whole segment) must carry a unit.
const std::set<std::string, std::less<>>& quantity_stems() {
  static const std::set<std::string, std::less<>> kStems = {
      "power",    "energy",  "watt",     "joule",    "freq",    "frequency",
      "capacity", "bandwidth", "latency", "delay",   "duration", "period",
      "deadline", "horizon", "timeout",  "interval", "elapsed",  "demand",
      "work",     "memory",  "mem",      "budget",   "time",
  };
  return kStems;
}

/// Recognized unit suffix segments.
const std::set<std::string, std::less<>>& unit_segments() {
  static const std::set<std::string, std::less<>> kUnits = {
      "w",  "kw",  "mw",  "gw",  "wh", "kwh", "j",  "kj",  "mj", "gj",
      "s",  "ms",  "us",  "ns",  "hz", "khz", "mhz", "ghz",
      "cycles", "gcycles", "mcycles",
      // bare "b" (bytes) is omitted: _b is a far more common generic pair
      // suffix (rack_a/rack_b) than a byte count.
      "kb",  "mb",  "gb",  "tb", "bps", "kbps", "mbps", "gbps",
      "pct", "percent",
  };
  return kUnits;
}

/// Count-like segments accepted on either side of `_per_` composites
/// (events_per_s, j_per_req, ...).
const std::set<std::string, std::less<>>& count_segments() {
  static const std::set<std::string, std::less<>> kCounts = {
      "req", "reqs", "request", "requests", "job", "jobs", "event", "events",
      "vm", "vms", "server", "servers", "move", "moves", "sample", "samples",
      "byte", "bytes",
  };
  return kCounts;
}

/// Dimensionless markers: the name states it is a pure number.
const std::set<std::string, std::less<>>& dimensionless_segments() {
  static const std::set<std::string, std::less<>> kDimless = {
      "frac", "fraction", "ratio", "factor", "scale", "share",
      "util", "utilization", "norm", "coeff",
  };
  return kDimless;
}

bool is_unit_or_count(const std::string& seg) {
  return unit_segments().count(seg) > 0 || count_segments().count(seg) > 0;
}

bool has_quantity_stem(const std::vector<std::string>& segs, std::string& stem_out) {
  for (const std::string& s : segs) {
    if (quantity_stems().count(s) > 0) {
      stem_out = s;
      return true;
    }
  }
  return false;
}

/// True when the segment list ends in a recognized unit, a dimensionless
/// marker, or a `<unit> per <unit>` composite.
bool has_unit_ending(const std::vector<std::string>& segs) {
  if (segs.empty()) return false;
  const std::string& last = segs.back();
  if (unit_segments().count(last) > 0 || dimensionless_segments().count(last) > 0) return true;
  if (segs.size() >= 3 && segs[segs.size() - 2] == "per" && is_unit_or_count(last) &&
      is_unit_or_count(segs[segs.size() - 3])) {
    return true;
  }
  return false;
}

/// True when `name` ends in a unit suffix — used by float-eq to classify
/// identifiers as floating quantities even without a visible declaration.
/// Requires at least two segments: a bare `s` or `w` is a generic variable
/// name, not a suffixed quantity.
bool unit_suffixed(std::string_view name) {
  const std::vector<std::string> segs = segments(name);
  return segs.size() >= 2 && unit_segments().count(segs.back()) > 0;
}

// ---------------------------------------------------------------------------
// rule: pragma-once

void rule_pragma_once(SourceFile& file, std::vector<Finding>& out) {
  if (!file.is_header()) return;
  const std::vector<Token>& code = file.code;
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (is_punct(code[i], "#") && code[i].at_line_start && is_ident(code[i + 1], "pragma") &&
        is_ident(code[i + 2], "once")) {
      return;
    }
  }
  emit(file, out, "pragma-once", 1, 1, "header is missing #pragma once");
}

// ---------------------------------------------------------------------------
// rule: determinism

void rule_determinism(SourceFile& file, std::vector<Finding>& out) {
  const std::vector<Token>& code = file.code;
  auto prev = [&](std::size_t i, std::size_t back) -> const Token* {
    return i >= back ? &code[i - back] : nullptr;
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    const Token* p1 = prev(i, 1);
    const bool member_access = p1 != nullptr && (is_punct(*p1, ".") || is_punct(*p1, "->"));
    if (t.text == "random_device" && !member_access) {
      emit(file, out, "determinism", t.line, t.col,
           "std::random_device is nondeterministic; use a seeded vdc::util::Rng");
      continue;
    }
    if (t.text == "system_clock" && !member_access) {
      emit(file, out, "determinism", t.line, t.col,
           "std::chrono::system_clock reads wall-clock time; results must replay "
           "bit-identically (steady_clock is allowed for duration measurement only)");
      continue;
    }
    const bool next_is_call = i + 1 < code.size() && is_punct(code[i + 1], "(");
    if ((t.text == "rand" || t.text == "srand") && next_is_call && !member_access) {
      emit(file, out, "determinism", t.line, t.col,
           "std::" + std::string(t.text) + " draws from hidden global state; use a seeded "
           "vdc::util::Rng");
      continue;
    }
    if (t.text == "time" && next_is_call) {
      if (member_access) continue;  // sim.time(), obj->time(): a method, not ::time
      bool banned = false;
      if (p1 != nullptr && is_punct(*p1, "::")) {
        const Token* p2 = prev(i, 2);
        // std::time( or globally qualified ::time( — Class::time() is fine.
        banned = p2 == nullptr || p2->kind != TokenKind::kIdentifier || p2->text == "std";
      } else if (p1 != nullptr && p1->kind == TokenKind::kIdentifier) {
        // `return time(...)` is a bare libc call; `double time()` declares.
        banned = p1->text == "return";
      } else if (p1 != nullptr && p1->kind == TokenKind::kPunct && !is_punct(*p1, "#")) {
        banned = true;  // `= time(nullptr)`, `(time(0))`, ...
      }
      if (banned) {
        emit(file, out, "determinism", t.line, t.col,
             "time() reads the wall clock; simulations must derive every timestamp from "
             "sim::Simulation::now()");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rule: unordered-iter

/// Skips a balanced template argument list starting at the `<` at index i.
/// Returns the index just past the matching `>`, or `i` when unbalanced.
std::size_t skip_angle_brackets(const std::vector<Token>& code, std::size_t i) {
  if (i >= code.size() || !is_punct(code[i], "<")) return i;
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (is_punct(code[j], "<")) {
      ++depth;
    } else if (is_punct(code[j], ">")) {
      if (--depth == 0) return j + 1;
    } else if (is_punct(code[j], ">>")) {
      depth -= 2;
      if (depth <= 0) return j + 1;
    } else if (is_punct(code[j], ";") || is_punct(code[j], "{")) {
      return i;  // clearly not a template argument list
    }
  }
  return i;
}

void rule_unordered_iter(SourceFile& file, const std::set<std::string>& unordered_names,
                         std::vector<Finding>& out) {
  const std::vector<Token>& code = file.code;
  // A name declared (anywhere in the tree — members live in headers, loops
  // in .cpp files) with an unordered container type, or the type itself.
  const auto unordered = [&](std::size_t j) {
    return j < code.size() && code[j].kind == TokenKind::kIdentifier &&
           (unordered_names.count(std::string(code[j].text)) > 0 ||
            code[j].text == "unordered_map" || code[j].text == "unordered_set");
  };
  const auto is_begin = [&](std::size_t j) {
    return j < code.size() && (is_ident(code[j], "begin") || is_ident(code[j], "cbegin"));
  };
  const auto flag = [&](std::size_t i, std::size_t j, const char* loop) {
    emit(file, out, "unordered-iter", code[i].line, code[i].col,
         std::string(loop) + " over unordered container '" + std::string(code[j].text) +
             "': iteration order is implementation-defined and must not influence "
             "plan ordering or floating-point summation");
  };
  // Range-for statements whose range mentions such a name, and classic for
  // statements whose init-statement takes its begin()/cbegin() (member or
  // std:: free form): both walk the container in hash order.
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!is_ident(code[i], "for") || !is_punct(code[i + 1], "(")) continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    std::size_t semicolon = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      if (is_punct(code[j], "(")) {
        ++depth;
      } else if (is_punct(code[j], ")")) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (depth == 1 && colon == 0) {
        if (is_punct(code[j], ";")) {
          semicolon = j;
          break;
        }
        if (is_punct(code[j], ":")) colon = j;
      }
    }
    if (semicolon != 0) {
      for (std::size_t j = i + 2; j < semicolon; ++j) {
        const bool member = unordered(j) && j + 2 < semicolon &&
                            (is_punct(code[j + 1], ".") || is_punct(code[j + 1], "->")) &&
                            is_begin(j + 2);
        if (member || (is_begin(j) && j + 2 < semicolon && is_punct(code[j + 1], "(") &&
                       unordered(j + 2))) {
          flag(i, member ? j : j + 2, "iterator loop");
          break;
        }
      }
      continue;
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (unordered(j)) {
        flag(i, j, "range-for");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// declaration scanning shared by units and float-eq

enum class ScopeKind { kNamespace, kClass, kEnum, kBlock };

struct Decl {
  std::string_view name;
  int line = 0;
  int col = 0;
  enum Kind { kParameter, kMember, kGlobal, kFunction } kind = kParameter;
};

const char* decl_kind_name(Decl::Kind k) {
  switch (k) {
    case Decl::kParameter: return "parameter";
    case Decl::kMember: return "member";
    case Decl::kGlobal: return "namespace-scope variable";
    case Decl::kFunction: return "function";
  }
  return "declaration";
}

/// Collects floating-point (double/float) parameters, members,
/// namespace-scope variables, and double-returning function names with a
/// lightweight scope tracker. Locals are deliberately not collected for the
/// units rule (they inherit their unit from what they are assigned), but
/// their names still land in `float_names` for float-eq classification.
void scan_float_decls(const SourceFile& file, std::vector<Decl>& decls,
                      std::set<std::string_view>& float_names) {
  const std::vector<Token>& code = file.code;
  std::vector<ScopeKind> scopes;
  bool pending_class = false;
  bool pending_enum = false;
  bool pending_namespace = false;
  int paren_depth = 0;

  auto current_scope = [&]() -> ScopeKind {
    return scopes.empty() ? ScopeKind::kNamespace : scopes.back();
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(") {
        ++paren_depth;
      } else if (t.text == ")") {
        paren_depth = std::max(0, paren_depth - 1);
      } else if (t.text == "{") {
        if (pending_namespace) {
          scopes.push_back(ScopeKind::kNamespace);
        } else if (pending_enum) {
          scopes.push_back(ScopeKind::kEnum);
        } else if (pending_class) {
          scopes.push_back(ScopeKind::kClass);
        } else {
          scopes.push_back(ScopeKind::kBlock);
        }
        pending_class = pending_enum = pending_namespace = false;
      } else if (t.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
      } else if (t.text == ";" || t.text == ")" || t.text == ",") {
        // forward declaration, parameter type, or template parameter list
        // (`template <class T> void f(...)`: the `)` clears before the body
        // brace; for a templated class the `class`/`struct` keyword of the
        // definition re-arms the flag): `class Foo;`, `f(struct tm x)`
        pending_class = pending_enum = pending_namespace = false;
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "namespace") {
      pending_namespace = true;
      continue;
    }
    if (t.text == "enum") {
      pending_enum = true;
      continue;
    }
    if ((t.text == "class" || t.text == "struct" || t.text == "union") && !pending_enum) {
      pending_class = true;
      continue;
    }
    if (t.text != "double" && t.text != "float") continue;
    // Require a declaration-ish context: previous token must not be a member
    // access or scope operator (`x.double`?? impossible, but `static_cast
    // <double>` leaves `<` before, which is fine to skip via the name check).
    const ScopeKind scope = current_scope();
    if (scope == ScopeKind::kEnum) continue;

    // Walk a declarator chain: double [cv/ptr] NAME [init] (, NAME [init])* ;
    std::size_t j = i + 1;
    while (j < code.size()) {
      while (j < code.size() &&
             (is_punct(code[j], "*") || is_punct(code[j], "&") || is_punct(code[j], "&&") ||
              is_ident(code[j], "const") || is_ident(code[j], "volatile"))) {
        ++j;
      }
      if (j >= code.size() || code[j].kind != TokenKind::kIdentifier) break;
      const Token& name = code[j];
      const Token* after = j + 1 < code.size() ? &code[j + 1] : nullptr;
      Decl d;
      d.name = name.text;
      d.line = name.line;
      d.col = name.col;
      bool record = false;
      if (paren_depth > 0) {
        // parameter: `double x`, `double x = 0.1`, `double x,` `double x)`
        if (after != nullptr && (is_punct(*after, ",") || is_punct(*after, ")") ||
                                 is_punct(*after, "=") || is_punct(*after, "[") ||
                                 is_punct(*after, "{"))) {
          d.kind = Decl::kParameter;
          decls.push_back(d);
        }
        float_names.insert(name.text);
        break;  // no declarator chains inside parameter lists we care about
      }
      if (after != nullptr && is_punct(*after, "(") && name.text != "operator" &&
          (scope == ScopeKind::kClass || scope == ScopeKind::kNamespace)) {
        d.kind = Decl::kFunction;
        decls.push_back(d);
        float_names.insert(name.text);
        break;  // one function name per `double` return type
      }
      if (after != nullptr && (is_punct(*after, ";") || is_punct(*after, "=") ||
                               is_punct(*after, "{") || is_punct(*after, "[") ||
                               is_punct(*after, ","))) {
        if (scope == ScopeKind::kClass) {
          d.kind = Decl::kMember;
          record = true;
        } else if (scope == ScopeKind::kNamespace) {
          d.kind = Decl::kGlobal;
          record = true;
        }
        float_names.insert(name.text);  // locals included: float-eq wants them
      }
      if (record) decls.push_back(d);
      // Advance past the initializer to a `,` (next declarator) or `;`/`)`.
      int depth = 0;
      bool more = false;
      for (; j < code.size(); ++j) {
        const Token& s = code[j];
        if (is_punct(s, "(") || is_punct(s, "[") || is_punct(s, "{")) {
          ++depth;
        } else if (is_punct(s, ")") || is_punct(s, "]") || is_punct(s, "}")) {
          if (depth == 0) break;  // end of enclosing list
          --depth;
        } else if (depth == 0 && is_punct(s, ";")) {
          break;
        } else if (depth == 0 && is_punct(s, ",")) {
          ++j;
          more = true;
          break;
        }
      }
      if (!more) break;
    }
  }
}

// ---------------------------------------------------------------------------
// rule: units

void rule_units(SourceFile& file, const std::vector<Decl>& decls, std::vector<Finding>& out) {
  for (const Decl& d : decls) {
    const std::vector<std::string> segs = segments(d.name);
    std::string stem;
    if (!has_quantity_stem(segs, stem)) continue;
    if (has_unit_ending(segs)) continue;
    std::ostringstream msg;
    msg << decl_kind_name(d.kind) << " '" << d.name << "' names the physical quantity '"
        << stem << "' but carries no unit suffix "
        << "(_w/_j/_s/_ghz/_hz/_mb/_mbps/..., a _per_ composite, or a dimensionless "
           "marker like _frac)";
    emit(file, out, "units", d.line, d.col, msg.str());
  }
}

// ---------------------------------------------------------------------------
// rule: float-eq

void rule_float_eq(SourceFile& file, const std::set<std::string_view>& float_names,
                   std::vector<Finding>& out) {
  const std::vector<Token>& code = file.code;
  auto floatish_ident = [&](const Token& t) {
    return t.kind == TokenKind::kIdentifier &&
           (float_names.count(t.text) > 0 || unit_suffixed(t.text));
  };
  auto float_operand = [&](const Token& t) {
    return is_float_literal(t) || floatish_ident(t);
  };
  for (std::size_t i = 1; i + 1 < code.size(); ++i) {
    if (!is_punct(code[i], "==") && !is_punct(code[i], "!=")) continue;
    bool floating = false;
    // Left operand: identifier / literal, or call `name(...) ==` — look back
    // through the matching paren to the callee name.
    const Token& left = code[i - 1];
    if (float_operand(left)) {
      floating = true;
    } else if (is_punct(left, ")")) {
      int depth = 0;
      for (std::size_t j = i - 1; j > 0; --j) {
        if (is_punct(code[j], ")")) {
          ++depth;
        } else if (is_punct(code[j], "(")) {
          if (--depth == 0) {
            if (floatish_ident(code[j - 1])) floating = true;
            break;
          }
        }
      }
    }
    // Right operand: skip unary +/-/! and parens, then walk the postfix
    // member chain — in `demands_ghz.size()` the deciding name is `size`,
    // not the suffixed object it is called on.
    std::size_t r = i + 1;
    while (r < code.size() && (is_punct(code[r], "-") || is_punct(code[r], "+") ||
                               is_punct(code[r], "!") || is_punct(code[r], "("))) {
      ++r;
    }
    if (!floating && r < code.size()) {
      if (is_float_literal(code[r])) {
        floating = true;
      } else if (code[r].kind == TokenKind::kIdentifier) {
        while (r + 2 < code.size() &&
               (is_punct(code[r + 1], ".") || is_punct(code[r + 1], "->")) &&
               code[r + 2].kind == TokenKind::kIdentifier) {
          r += 2;
        }
        if (floatish_ident(code[r])) floating = true;
      }
    }
    if (!floating) continue;
    emit(file, out, "float-eq", code[i].line, code[i].col,
         std::string(code[i].text) + " on a floating-point expression: use a tolerance, an "
         "exactness helper (vdc::check::is_exactly_zero), or annotate why bitwise "
         "equality is the contract");
  }
}

// ---------------------------------------------------------------------------
// rule: check-side-effect

void rule_check_side_effect(SourceFile& file, std::vector<Finding>& out) {
  const std::vector<Token>& code = file.code;
  static const std::set<std::string_view> kMutators = {
      "push_back", "pop_back", "insert", "erase",  "emplace", "emplace_back",
      "clear",     "reset",    "release", "resize", "assign",  "push",
      "pop",       "swap",
  };
  static const std::set<std::string_view> kAssignOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
  };
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier ||
        (t.text != "VDC_ASSERT" && t.text != "VDC_INVARIANT" && t.text != "VDC_UNREACHABLE")) {
      continue;
    }
    if (!is_punct(code[i + 1], "(")) continue;
    // `#define VDC_ASSERT(...)` — skip the macro's own definition.
    if (i >= 2 && is_ident(code[i - 1], "define") && is_punct(code[i - 2], "#")) continue;
    int depth = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      const Token& a = code[j];
      if (is_punct(a, "(")) {
        ++depth;
        continue;
      }
      if (is_punct(a, ")")) {
        if (--depth == 0) break;
        continue;
      }
      std::string offence;
      if (a.kind == TokenKind::kPunct && kAssignOps.count(a.text) > 0) {
        // `[=]` lambda captures are not assignments.
        const bool capture =
            a.text == "=" && (is_punct(code[j - 1], "[") ||
                              (j + 1 < code.size() && is_punct(code[j + 1], "]")));
        if (!capture) offence = "assignment '" + std::string(a.text) + "'";
      } else if (is_punct(a, "++") || is_punct(a, "--")) {
        offence = "'" + std::string(a.text) + "'";
      } else if (a.kind == TokenKind::kIdentifier && kMutators.count(a.text) > 0 && j > 0 &&
                 (is_punct(code[j - 1], ".") || is_punct(code[j - 1], "->")) &&
                 j + 1 < code.size() && is_punct(code[j + 1], "(")) {
        offence = "mutating call '." + std::string(a.text) + "(...)'";
      }
      if (!offence.empty()) {
        emit(file, out, "check-side-effect", a.line, a.col,
             offence + " inside " + std::string(t.text) +
                 ": the whole expression compiles out under -DVDC_CHECKS=OFF, so the "
                 "side effect silently disappears in release builds");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rule: shard-safety

/// Flags hidden shared mutable state in the subsystems that run inside the
/// sharded engine's parallel shard advance: a mutable `static` variable
/// (namespace scope, function-local, or class-static member) or a mutable
/// namespace-scope variable is written by whichever shard thread gets there
/// first — a data race under TSan and, even when atomically benign, a
/// determinism leak across shard counts. Safe forms are exempt:
/// const/constexpr/constinit declarations, function declarations (a
/// `static` return type is not state), and `thread_local` (no cross-thread
/// sharing; its determinism hazards are the determinism rule's business).
void rule_shard_safety(SourceFile& file, std::vector<Finding>& out) {
  const std::vector<Token>& code = file.code;
  std::vector<ScopeKind> scopes;
  bool pending_class = false;
  bool pending_enum = false;
  bool pending_namespace = false;
  int paren_depth = 0;

  auto current_scope = [&]() -> ScopeKind {
    return scopes.empty() ? ScopeKind::kNamespace : scopes.back();
  };

  /// Classifies the declaration whose specifiers start at `begin`: walks to
  /// the head terminator (`;`, `=`, `{`, or a top-level `(`), skipping
  /// template argument lists. Reports whether the head carries a constness
  /// qualifier, whether it is a function declarator, and the last
  /// identifier seen (the declared name for a variable).
  struct DeclHead {
    bool immutable = false;     // const / constexpr / constinit / thread_local
    bool function = false;      // terminator was a top-level `(`
    bool variable = false;      // terminator was `;`, `=`, or brace-init `{`
    const Token* name = nullptr;
  };
  auto scan_decl_head = [&](std::size_t begin) {
    DeclHead head;
    for (std::size_t j = begin; j < code.size();) {
      const Token& t = code[j];
      if (t.kind == TokenKind::kIdentifier) {
        if (t.text == "const" || t.text == "constexpr" || t.text == "constinit" ||
            t.text == "thread_local") {
          head.immutable = true;
        } else if (t.text == "operator") {
          head.function = true;  // conversion/operator declarator
          return head;
        } else {
          head.name = &t;
        }
        j = skip_angle_brackets(code, j + 1);
        continue;
      }
      if (is_punct(t, "(")) {
        head.function = true;
        return head;
      }
      if (is_punct(t, ";") || is_punct(t, "=")) {
        head.variable = true;
        return head;
      }
      if (is_punct(t, "{")) {
        // Brace-init of a variable (`static int x{0};`) when a name was
        // seen; otherwise something structural — not a variable.
        head.variable = head.name != nullptr;
        return head;
      }
      if (is_punct(t, "}") || is_punct(t, ")")) return head;  // ran off the decl
      ++j;  // *, &, ::, attributes, ...
    }
    return head;
  };

  // Namespace-scope statement accumulation for the mutable-global check:
  // `begin` is the first token of the current statement, npos while inside
  // a non-namespace scope or after a disqualifying token.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t stmt_begin = 0;  // file scope is namespace scope
  auto statement_boundary = [&](std::size_t next) {
    stmt_begin = current_scope() == ScopeKind::kNamespace ? next : kNone;
  };

  auto check_namespace_decl = [&](std::size_t begin, std::size_t end) {
    // A namespace-scope statement `<specifiers> name [= init] ;` with no
    // top-level parens is a variable definition. Everything else —
    // functions, type definitions, aliases, templates, extern/static
    // (handled by the static check) — is excluded by keyword or shape.
    if (begin == kNone || begin >= end) return;
    // Preprocessor directives carry no ';', so they prefix the following
    // statement's token range: trim them off the front.
    while (begin < end && is_punct(code[begin], "#")) {
      const int directive_line = code[begin].line;
      while (begin < end && code[begin].line == directive_line) ++begin;
    }
    if (begin >= end) return;
    static const std::set<std::string_view> kExcluded = {
        "using",  "typedef", "class",    "struct",        "union",  "enum",
        "friend", "extern",  "template", "static_assert", "static", "concept",
        "requires", "namespace",
    };
    for (std::size_t j = begin; j < end; ++j) {
      if (code[j].kind == TokenKind::kIdentifier && kExcluded.count(code[j].text) > 0) return;
      if (is_punct(code[j], "#")) return;  // mid-statement preprocessor: bail
    }
    const DeclHead head = scan_decl_head(begin);
    if (!head.variable || head.function || head.immutable || head.name == nullptr) return;
    emit(file, out, "shard-safety", head.name->line, head.name->col,
         "namespace-scope variable '" + std::string(head.name->text) +
             "' is mutable shared state on the sharded-engine path: shard threads may "
             "race on it and its value can depend on the shard layout; make it "
             "const/constexpr, move it into the owning object, or annotate why it is safe");
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "(") {
        ++paren_depth;
      } else if (t.text == ")") {
        paren_depth = std::max(0, paren_depth - 1);
        pending_class = pending_enum = pending_namespace = false;
      } else if (t.text == "{") {
        if (pending_namespace) {
          scopes.push_back(ScopeKind::kNamespace);
        } else if (pending_enum) {
          scopes.push_back(ScopeKind::kEnum);
        } else if (pending_class) {
          scopes.push_back(ScopeKind::kClass);
        } else {
          scopes.push_back(ScopeKind::kBlock);
        }
        pending_class = pending_enum = pending_namespace = false;
        statement_boundary(i + 1);
      } else if (t.text == "}") {
        if (!scopes.empty()) scopes.pop_back();
        statement_boundary(i + 1);
      } else if (t.text == ";") {
        if (paren_depth == 0) {
          check_namespace_decl(stmt_begin, i);
          statement_boundary(i + 1);
        }
        pending_class = pending_enum = pending_namespace = false;
      } else if (t.text == ",") {
        pending_class = pending_enum = pending_namespace = false;
      }
      continue;
    }
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "namespace") {
      pending_namespace = true;
      continue;
    }
    if (t.text == "enum") {
      pending_enum = true;
      continue;
    }
    if ((t.text == "class" || t.text == "struct" || t.text == "union") && !pending_enum) {
      pending_class = true;
      continue;
    }
    if (t.text != "static") continue;
    if (current_scope() == ScopeKind::kEnum || paren_depth > 0) continue;
    const DeclHead head = scan_decl_head(i + 1);
    if (!head.variable || head.function || head.immutable) continue;
    const Token& at = head.name != nullptr ? *head.name : t;
    const std::string what = head.name != nullptr
                                 ? "static variable '" + std::string(head.name->text) + "'"
                                 : "static variable";
    emit(file, out, "shard-safety", at.line, at.col,
         what + " is mutable shared state on the sharded-engine path: initialization "
                "and every write race across shard threads; make it const/constexpr, "
                "move it into the owning object, or annotate why it is safe");
  }
}

// ---------------------------------------------------------------------------
// rule: include-cycle (whole tree)

struct IncludeEdge {
  std::string to;  ///< repo-relative include target
  int line = 0;
};

void collect_includes(const SourceFile& file, const std::set<std::string>& known,
                      std::vector<IncludeEdge>& edges) {
  const std::vector<Token>& code = file.code;
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!is_punct(code[i], "#") || !code[i].at_line_start || !is_ident(code[i + 1], "include") ||
        code[i + 2].kind != TokenKind::kString) {
      continue;
    }
    std::string_view quoted = code[i + 2].text;
    if (quoted.size() < 2) continue;
    const std::string inc(quoted.substr(1, quoted.size() - 2));
    // Quoted includes resolve against the includer's directory first, then
    // the src/ include root (how the build sets -I).
    const std::size_t slash = file.rel.find_last_of('/');
    const std::string sibling =
        slash == std::string::npos ? inc : file.rel.substr(0, slash + 1) + inc;
    if (known.count(sibling) > 0) {
      edges.push_back({sibling, code[i].line});
    } else if (known.count("src/" + inc) > 0) {
      edges.push_back({"src/" + inc, code[i].line});
    }
  }
}

/// The quoted-include graph of `files`: each file's resolved include edges.
std::map<std::string, std::vector<IncludeEdge>> include_graph(const std::vector<SourceFile>& files) {
  std::set<std::string> known;
  for (const SourceFile& f : files) known.insert(f.rel);
  std::map<std::string, std::vector<IncludeEdge>> graph;
  for (const SourceFile& f : files) collect_includes(f, known, graph[f.rel]);
  return graph;
}

void run_include_cycles_impl(std::vector<SourceFile>& files, std::vector<Finding>& out) {
  std::map<std::string, std::vector<IncludeEdge>> graph = include_graph(files);
  std::map<std::string, SourceFile*> by_rel;
  for (SourceFile& f : files) by_rel[f.rel] = &f;
  // Iterative DFS, reporting each back edge as one cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  for (const auto& [root, edges_unused] : graph) {
    (void)edges_unused;
    if (color[root] != 0) continue;
    struct Frame {
      std::string node;
      std::size_t next = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({root});
    color[root] = 1;
    path.push_back(root);
    while (!stack.empty()) {
      Frame& fr = stack.back();
      const std::vector<IncludeEdge>& edges = graph[fr.node];
      if (fr.next >= edges.size()) {
        color[fr.node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const IncludeEdge& e = edges[fr.next++];
      if (color[e.to] == 1) {
        std::ostringstream msg;
        msg << "include cycle: ";
        bool in_cycle = false;
        for (const std::string& n : path) {
          if (n == e.to) in_cycle = true;
          if (in_cycle) msg << n << " -> ";
        }
        msg << e.to;
        SourceFile* owner = by_rel[fr.node];
        emit(*owner, out, "include-cycle", e.line, 1, msg.str());
      } else if (color[e.to] == 0) {
        color[e.to] = 1;
        path.push_back(e.to);
        stack.push_back({e.to});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rule: orphan-header (whole tree)

/// Files whose includes keep a library header alive: the library itself and
/// every program built on it. Tests do not count.
bool is_program_file(std::string_view rel) {
  return starts_with(rel, "src/") || starts_with(rel, "bench/") || starts_with(rel, "tools/") ||
         starts_with(rel, "examples/") || starts_with(rel, "perfbench/");
}

constexpr std::string_view kUmbrellaHeader = "src/vdc.hpp";

/// "src/a/b.hpp" -> "src/a/b.cpp".
std::string own_source(std::string_view header) {
  return std::string(header.substr(0, header.size() - 4)) + ".cpp";
}

/// The `#pragma once` line, where the finding (and its suppression) sits;
/// line 1 when the header has none.
int pragma_once_line(const SourceFile& file) {
  const std::vector<Token>& code = file.code;
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (is_punct(code[i], "#") && code[i].at_line_start && is_ident(code[i + 1], "pragma") &&
        is_ident(code[i + 2], "once")) {
      return code[i].line;
    }
  }
  return 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// public interface

RuleConfig config_for(std::string_view rel) {
  RuleConfig cfg;
  const bool in_src = starts_with(rel, "src/");
  const bool in_tools = starts_with(rel, "tools/");
  cfg.units = (in_src || in_tools) && !starts_with(rel, "src/linalg/") &&
              !starts_with(rel, "src/util/");
  cfg.float_eq = (in_src || in_tools) && !starts_with(rel, "src/linalg/");
  cfg.unordered_iter = starts_with(rel, "src/sim/") || starts_with(rel, "src/consolidate/") ||
                       starts_with(rel, "src/datacenter/") || starts_with(rel, "src/core/");
  cfg.shard_safety = starts_with(rel, "src/sim/") || starts_with(rel, "src/app/") ||
                     starts_with(rel, "src/datacenter/") || starts_with(rel, "src/core/");
  return cfg;
}

RuleConfig all_rules_config() { return RuleConfig{}; }

bool known_rule(std::string_view name) {
  static const std::set<std::string_view> kRules = {
      "units",       "determinism",       "unordered-iter", "float-eq",
      "check-side-effect", "pragma-once", "include-cycle",  "shard-safety",
      "orphan-header",
  };
  return kRules.count(name) > 0;
}

void collect_unordered_names(const SourceFile& file, std::set<std::string>& names) {
  const std::vector<Token>& code = file.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (!is_ident(code[i], "unordered_map") && !is_ident(code[i], "unordered_set")) continue;
    std::size_t j = skip_angle_brackets(code, i + 1);
    while (j < code.size() &&
           (is_punct(code[j], "*") || is_punct(code[j], "&") || is_ident(code[j], "const"))) {
      ++j;
    }
    if (j < code.size() && code[j].kind == TokenKind::kIdentifier) {
      names.insert(std::string(code[j].text));
    }
  }
}

void run_file_rules(SourceFile& file, const RuleConfig& cfg,
                    const std::set<std::string>& unordered_names, std::vector<Finding>& out) {
  if (cfg.pragma_once) rule_pragma_once(file, out);
  if (cfg.determinism) rule_determinism(file, out);
  if (cfg.unordered_iter) rule_unordered_iter(file, unordered_names, out);
  if (cfg.check_side_effect) rule_check_side_effect(file, out);
  if (cfg.shard_safety) rule_shard_safety(file, out);
  if (cfg.units || cfg.float_eq) {
    std::vector<Decl> decls;
    std::set<std::string_view> float_names;
    scan_float_decls(file, decls, float_names);
    if (cfg.units) rule_units(file, decls, out);
    if (cfg.float_eq) rule_float_eq(file, float_names, out);
  }
}

void run_suppression_hygiene(const SourceFile& file, const RuleConfig& cfg,
                             std::vector<Finding>& out) {
  for (const Suppression& s : file.suppressions) {
    auto hygiene = [&](const std::string& message) {
      Finding f;
      f.file = file.rel;
      f.line = s.comment_line;
      f.col = 1;
      f.rule = "suppression";
      f.message = message;
      out.push_back(std::move(f));
    };
    if (!known_rule(s.rule)) {
      hygiene("suppression names unknown rule '" + s.rule + "'");
      continue;
    }
    if (s.reason.empty()) {
      hygiene("suppression for '" + s.rule + "' has no reason; write `// vdc-lint: " + s.rule +
              "-ok <why this is safe>`");
      continue;
    }
    const bool rule_ran = (s.rule == "units" && cfg.units) ||
                          (s.rule == "determinism" && cfg.determinism) ||
                          (s.rule == "unordered-iter" && cfg.unordered_iter) ||
                          (s.rule == "float-eq" && cfg.float_eq) ||
                          (s.rule == "check-side-effect" && cfg.check_side_effect) ||
                          (s.rule == "pragma-once" && cfg.pragma_once) ||
                          (s.rule == "shard-safety" && cfg.shard_safety);
    if (rule_ran && !s.used) {
      hygiene("unused suppression: no '" + s.rule + "' finding on line " +
              std::to_string(s.target_line));
    }
  }
}

void run_include_cycles(std::vector<SourceFile>& files, std::vector<Finding>& out) {
  run_include_cycles_impl(files, out);
}

void run_orphan_headers(std::vector<SourceFile>& files, std::vector<Finding>& out) {
  std::set<std::string> included;
  for (const auto& [from, edges] : include_graph(files)) {
    if (!is_program_file(from) || from == kUmbrellaHeader) continue;
    for (const IncludeEdge& e : edges) {
      if (from != own_source(e.to)) included.insert(e.to);
    }
  }
  for (SourceFile& f : files) {
    if (!starts_with(f.rel, "src/") || !f.is_header() || f.rel == kUmbrellaHeader ||
        included.count(f.rel) > 0) {
      continue;
    }
    emit(f, out, "orphan-header", pragma_once_line(f), 1,
         "no file in src/, bench/, tools/, examples/ or perfbench/ includes this header apart "
         "from its own .cpp and src/vdc.hpp: only its tests use it; delete it with them");
  }
}

}  // namespace vdc::lint
