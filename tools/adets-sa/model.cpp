#include "model.hpp"

#include <algorithm>
#include <cctype>
#include <regex>

namespace adets::sa {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

const std::set<std::string>& type_keywords() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "void", "int",  "bool",   "char",     "auto",     "float",    "double",
      "long", "short", "signed", "unsigned", "decltype", "typename", "wchar_t",
  };
  return *k;
}

const std::set<std::string>& non_call_keywords() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "if",     "for",        "while",      "switch",     "return",
      "sizeof", "alignof",    "catch",      "throw",      "new",
      "delete", "static_cast", "dynamic_cast", "const_cast",
      "reinterpret_cast", "static_assert", "noexcept", "assert", "defined",
      "int",    "bool",       "void",       "char",       "double",
      "float",  "long",       "unsigned",   "co_await",   "co_return",
  };
  return *k;
}

/// Names that introduce a scoped lock over their first constructor arg.
const std::set<std::string>& lock_types() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "MutexLock", "Lk", "lock_guard", "unique_lock", "scoped_lock",
  };
  return *k;
}

/// Container/atomic methods that mutate their receiver.
const std::set<std::string>& mutating_methods() {
  static const std::set<std::string>* k = new std::set<std::string>{
      "push_back", "push_front", "pop_back", "pop_front", "emplace",
      "emplace_back", "emplace_front", "insert", "erase", "clear",
      "resize", "assign", "store", "fetch_add", "fetch_sub", "swap",
  };
  return *k;
}

bool type_is_mutex(const std::string& type) {
  static const std::regex re(
      R"(\b(Mutex|(recursive_|timed_|recursive_timed_|shared_timed_|shared_)?mutex)\b)");
  if (type.find("MutexLock") != std::string::npos) return false;
  return std::regex_search(type, re);
}

bool type_is_condvar(const std::string& type) {
  static const std::regex re(R"(\b(CondVar|condition_variable(_any)?)\b)");
  return std::regex_search(type, re);
}

bool type_is_atomic(const std::string& type) {
  static const std::regex re(R"(\batomic\b)");
  return std::regex_search(type, re);
}

/// True if `code` ends with a raw-string prefix whose `R` starts a new
/// token: `R`, `u8R`, `uR`, `LR` (the next char is the opening quote).
bool raw_string_prefix(const std::string& code) {
  std::size_t n = code.size();
  if (n == 0 || code[n - 1] != 'R') return false;
  std::size_t start = n - 1;  // first char of the prefix token
  if (n >= 3 && code[n - 3] == 'u' && code[n - 2] == '8') {
    start = n - 3;
  } else if (n >= 2 && (code[n - 2] == 'u' || code[n - 2] == 'L')) {
    start = n - 2;
  }
  if (start == 0) return true;
  const unsigned char before = static_cast<unsigned char>(code[start - 1]);
  return std::isalnum(before) == 0 && before != '_';
}

/// True if a `'` appearing after `code` is a digit separator inside a
/// numeric literal (`1'000'000`, `0xFF'FF`) rather than the start of a
/// char literal.  A separator sits between alphanumerics of a pp-number
/// token, i.e. a run of identifier chars / `.` / `'` that *starts with a
/// digit* -- which excludes prefixed char literals like `L'a'` or
/// `u8'x'`, whose preceding token starts with a letter.
bool digit_separator(const std::string& code, char next) {
  if (code.empty() || std::isalnum(static_cast<unsigned char>(next)) == 0) {
    return false;
  }
  std::size_t start = code.size();
  while (start > 0) {
    const unsigned char c = static_cast<unsigned char>(code[start - 1]);
    if (std::isalnum(c) != 0 || c == '_' || c == '.' || c == '\'') {
      start--;
    } else {
      break;
    }
  }
  if (start == code.size()) return false;  // no preceding token char
  return std::isdigit(static_cast<unsigned char>(code[start])) != 0;
}

}  // namespace

std::vector<Line> preprocess(const std::string& content) {
  std::vector<Line> lines;
  Line cur;
  enum class State { kCode, kString, kChar, kLineComment, kBlockComment, kRawString };
  State state = State::kCode;
  // Raw-string bookkeeping: the delimiter between `R"` and `(`, and the
  // closing sentinel `)delim"` we are scanning for.
  std::string raw_delim;
  bool raw_in_delim = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      // A backslash continuation extends string/char literals and line
      // comments across the physical newline, but the *line* still ends
      // here -- emitting it keeps every later finding's line number true.
      if (state == State::kLineComment &&
          (cur.comment.empty() || cur.comment.back() != '\\')) {
        state = State::kCode;
      }
      lines.push_back(std::move(cur));
      cur = Line{};
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"' && raw_string_prefix(cur.code)) {
          cur.code += '"';
          state = State::kRawString;
          raw_delim.clear();
          raw_in_delim = true;
        } else if (c == '"') {
          cur.code += '"';
          state = State::kString;
        } else if (c == '\'' && digit_separator(cur.code, next)) {
          cur.code += '\'';  // numeric literal separator, not a char literal
        } else if (c == '\'') {
          cur.code += '\'';
          state = State::kChar;
        } else {
          cur.code += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          // Skip the escaped character -- unless it is the newline of a
          // line continuation, which the top of the loop must still see.
          if (next != '\n') ++i;
        } else if (c == '"') {
          cur.code += '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          if (next != '\n') ++i;
        } else if (c == '\'') {
          cur.code += '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (raw_in_delim) {
          if (c == '(') {
            raw_in_delim = false;
          } else {
            raw_delim += c;
          }
        } else if (c == ')' &&
                   content.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
                   i + 1 + raw_delim.size() < content.size() &&
                   content[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;  // consume `delim"`
          cur.code += '"';
          state = State::kCode;
        }
        // Raw-string content (including embedded newlines, handled at
        // the top of the loop) is blanked like any other literal.
        break;
      case State::kLineComment:
        cur.comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          cur.comment += c;
        }
        break;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

std::vector<Token> tokenize(const std::vector<std::string>& code_lines) {
  std::vector<Token> out;
  bool in_directive = false;
  for (std::size_t li = 0; li < code_lines.size(); ++li) {
    const std::string& s = code_lines[li];
    const int line = static_cast<int>(li) + 1;
    std::size_t i = 0;
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) i++;
    // Preprocessor lines (and their continuations) carry no declarations.
    if (!in_directive && i < s.size() && s[i] == '#') in_directive = true;
    if (in_directive) {
      in_directive = !s.empty() && s.back() == '\\';
      continue;
    }
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        i++;
      } else if (is_ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0) {
        std::size_t j = i;
        while (j < s.size() && is_ident_char(s[j])) j++;
        out.push_back({s.substr(i, j - i), line, true});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        std::size_t j = i;
        while (j < s.size() && (is_ident_char(s[j]) || s[j] == '.' || s[j] == '\'')) j++;
        out.push_back({s.substr(i, j - i), line, false});
        i = j;
      } else if (c == '"' || c == '\'') {
        // preprocess() blanks literal contents, so the delimiters abut.
        const std::size_t j = i + 1 < s.size() && s[i + 1] == c ? i + 2 : i + 1;
        out.push_back({std::string(2, c), line, false});
        i = j;
      } else if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        out.push_back({"::", line, false});
        i += 2;
      } else if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        out.push_back({"->", line, false});
        i += 2;
      } else {
        out.push_back({std::string(1, c), line, false});
        i++;
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser: a cursor over the token stream with a recursive scope walker.

class Parser {
 public:
  Parser(Program& prog, std::string file, std::vector<Token> toks)
      : prog_(prog), file_(std::move(file)), t_(std::move(toks)) {}

  void run() { parse_scope("", /*in_class=*/-1, /*access_public=*/true); }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= t_.size(); }
  [[nodiscard]] const Token& cur() const { return t_[pos_]; }
  [[nodiscard]] const std::string& txt(std::size_t off = 0) const {
    static const std::string empty;
    return pos_ + off < t_.size() ? t_[pos_ + off].text : empty;
  }

  /// Consumes a balanced group starting at the current `open` token.
  void skip_balanced(const char* open, const char* close) {
    int depth = 0;
    while (!at_end()) {
      if (cur().text == open) depth++;
      if (cur().text == close) depth--;
      pos_++;
      if (depth == 0) return;
    }
  }

  /// Consumes a `<...>` template group (approximate: `>` closes).
  void skip_angles() {
    int depth = 0;
    while (!at_end()) {
      if (cur().text == "<") depth++;
      if (cur().text == ">") depth--;
      pos_++;
      if (depth == 0) return;
    }
  }

  void skip_to_semicolon() {
    int paren = 0;
    while (!at_end()) {
      if (cur().text == "(") paren++;
      if (cur().text == ")") paren--;
      if (cur().text == "{") {
        // A brace group ends the construct (friend/inline definitions,
        // enum bodies); a trailing `;` is consumed by the scope loop.
        skip_balanced("{", "}");
        return;
      }
      if (cur().text == "}" && paren <= 0) return;  // enclosing scope ends
      if (cur().text == ";" && paren <= 0) {
        pos_++;
        return;
      }
      pos_++;
    }
  }

  /// `scope`: qualified prefix ("ns::Class").  `cls`: index of enclosing
  /// class in prog_.classes, or -1 at namespace scope.
  void parse_scope(const std::string& scope, int cls, bool access_public) {
    while (!at_end()) {
      const std::string& w = cur().text;
      if (w == "}") {
        pos_++;
        return;
      }
      if (w == "namespace") {
        pos_++;
        std::string name;
        while (!at_end() && cur().ident) {
          name = cur().text;
          pos_++;
          if (txt() == "::") {
            pos_++;
            continue;
          }
          break;
        }
        if (txt() == "{") {
          pos_++;
          std::string inner = scope;
          if (!name.empty()) inner = scope.empty() ? name : scope + "::" + name;
          parse_scope(inner, -1, true);
        } else {
          skip_to_semicolon();  // namespace alias
        }
        continue;
      }
      if (w == "template") {
        pos_++;
        if (txt() == "<") skip_angles();
        continue;  // prefix of the next declaration
      }
      if (w == "class" || w == "struct") {
        if (!parse_class_or_skip(scope)) skip_to_semicolon();
        continue;
      }
      if (w == "enum") {
        skip_to_semicolon();
        continue;
      }
      if (w == "using" || w == "typedef" || w == "friend" || w == "static_assert" ||
          w == "extern") {
        skip_to_semicolon();
        continue;
      }
      if (cls >= 0 && (w == "public" || w == "protected" || w == "private") &&
          txt(1) == ":") {
        access_public = (w == "public");
        pos_ += 2;
        continue;
      }
      if (w == ";") {
        pos_++;
        continue;
      }
      parse_declaration(scope, cls, access_public);
    }
  }

  /// At a `class`/`struct` token: parses a definition (returns true) or
  /// leaves the cursor for skip_to_semicolon on forward declarations.
  bool parse_class_or_skip(const std::string& scope) {
    const bool is_struct = cur().text == "struct";
    const int line = cur().line;
    pos_++;
    // Scan for the name, skipping attribute macros like
    // ADETS_CAPABILITY("mutex") and alignas(...).
    std::string name;
    std::size_t probe = pos_;
    while (probe < t_.size()) {
      const Token& tk = t_[probe];
      if (tk.text == "{" || tk.text == ";" || tk.text == ":") break;
      if (tk.ident && tk.text != "final" && tk.text != "alignas") {
        if (probe + 1 < t_.size() && t_[probe + 1].text == "(") {
          // macro call: skip its group
          std::size_t q = probe + 1;
          int depth = 0;
          while (q < t_.size()) {
            if (t_[q].text == "(") depth++;
            if (t_[q].text == ")") depth--;
            q++;
            if (depth == 0) break;
          }
          probe = q;
          continue;
        }
        name = tk.text;
      }
      probe++;
    }
    if (probe >= t_.size() || t_[probe].text == ";" || name.empty()) {
      return false;  // forward declaration / unrecognised
    }
    // Base list.
    std::vector<std::string> bases;
    if (t_[probe].text == ":") {
      std::size_t q = probe + 1;
      std::string last;
      while (q < t_.size() && t_[q].text != "{") {
        const Token& tk = t_[q];
        if (tk.text == "<") {  // template args of a base
          int depth = 0;
          while (q < t_.size()) {
            if (t_[q].text == "<") depth++;
            if (t_[q].text == ">") depth--;
            q++;
            if (depth == 0) break;
          }
          continue;
        }
        if (tk.text == ",") {
          if (!last.empty()) bases.push_back(last);
          last.clear();
        } else if (tk.ident && tk.text != "public" && tk.text != "protected" &&
                   tk.text != "private" && tk.text != "virtual") {
          last = tk.text;  // last component of a qualified name wins
        }
        q++;
      }
      if (!last.empty()) bases.push_back(last);
      probe = q;
    }
    // probe now at `{`.
    pos_ = probe + 1;
    Class c;
    c.name = scope.empty() ? name : scope + "::" + name;
    c.file = file_;
    c.line = line;
    c.bases = std::move(bases);
    prog_.classes.push_back(std::move(c));
    const int idx = static_cast<int>(prog_.classes.size()) - 1;
    // By value: nested classes push_back into prog_.classes and may
    // reallocate it while parse_scope still reads the scope name.
    const std::string qualified = prog_.classes[idx].name;
    parse_scope(qualified, idx, is_struct);
    if (!at_end() && cur().text == ";") pos_++;
    return true;
  }

  struct DeclRun {
    std::vector<Token> toks;
    // Index (into toks) of the name token of the first ident-`(` group
    // whose name is not a type keyword; -1 when absent.
    int fn_name = -1;
    int paren_close = -1;  // index of the `)` closing the parameter list
    bool saw_operator = false;
  };

  /// Collects a declaration at class/namespace scope, classifying it as
  /// a function (with or without body) or a field/variable.
  void parse_declaration(const std::string& scope, int cls, bool access_public) {
    DeclRun run;
    int paren_depth = 0;
    bool body_found = false;
    while (!at_end()) {
      const Token& tk = cur();
      if (tk.text == ";" && paren_depth == 0) {
        pos_++;
        break;
      }
      if (tk.text == "}" && paren_depth == 0) break;  // malformed; bail
      if (tk.text == "{" && paren_depth == 0) {
        if (classify_brace(run)) {
          body_found = true;
          break;
        }
        // Initializer / init-list brace: fold it into the run.
        const std::size_t start = pos_;
        skip_balanced("{", "}");
        for (std::size_t k = start; k < pos_ && k < t_.size(); ++k) {
          run.toks.push_back(t_[k]);
        }
        continue;
      }
      if (tk.text == "(") paren_depth++;
      if (tk.text == ")") {
        paren_depth--;
        if (paren_depth == 0 && run.fn_name >= 0 && run.paren_close < 0) {
          run.paren_close = static_cast<int>(run.toks.size());
        }
      }
      if (tk.text == "operator") run.saw_operator = true;
      if (tk.text == "(" && paren_depth == 1 && run.fn_name < 0 &&
          !run.toks.empty()) {
        const Token& prev = run.toks.back();
        const bool eq_before =
            std::any_of(run.toks.begin(), run.toks.end(),
                        [](const Token& x) { return x.text == "="; });
        if (!eq_before && prev.ident && type_keywords().count(prev.text) == 0 &&
            prev.text.rfind("ADETS_", 0) != 0) {
          run.fn_name = static_cast<int>(run.toks.size()) - 1;
        } else if (!eq_before && run.saw_operator) {
          run.fn_name = static_cast<int>(run.toks.size()) - 1;
        }
      }
      run.toks.push_back(tk);
      pos_++;
    }
    if (run.toks.empty()) return;
    if (run.fn_name >= 0) {
      emit_function(run, scope, cls, access_public, body_found);
    } else if (cls >= 0) {
      emit_field(run, cls);
    }
    // Namespace-scope variables are not modelled.
  }

  /// At a top-level `{` inside a declaration run: true if it opens a
  /// function body (parse_declaration stops; emit_function consumes it).
  bool classify_brace(const DeclRun& run) {
    if (run.fn_name < 0) return false;  // brace-init member / aggregate
    if (run.toks.empty()) return false;
    const Token& last = run.toks.back();
    if (last.text == ")" || last.text == ">" || last.text == "}") return true;
    if (last.ident &&
        (last.text == "const" || last.text == "noexcept" || last.text == "override" ||
         last.text == "final" || last.text == "mutable" || last.text == "try")) {
      return true;
    }
    // `Ctor() : member_{init} {` -- an identifier directly before `{`
    // inside a constructor initialiser list is an init brace.
    if (run.paren_close >= 0) {
      for (std::size_t k = run.paren_close; k < run.toks.size(); ++k) {
        if (run.toks[k].text == ":") return false;  // init-list context
      }
    }
    // Annotation macro close also ends in ")"; anything else (e.g. an
    // identifier with no ctor context) is a brace initialiser.
    return false;
  }

  void emit_function(const DeclRun& run, const std::string& scope, int cls,
                     bool access_public, bool body_follows) {
    Function fn;
    fn.file = file_;
    fn.is_public = cls < 0 || access_public;
    const Token& name_tok = run.toks[run.fn_name];
    fn.name = name_tok.text;
    fn.line = name_tok.line;
    if (run.saw_operator) fn.name = "operator";
    // Destructor / qualified name.
    int before = run.fn_name - 1;
    if (before >= 0 && run.toks[before].text == "~") fn.name = "~" + fn.name;
    if (before >= 1 && run.toks[before].text == "::" && run.toks[before - 1].ident) {
      // Out-of-class definition `Class::name` (possibly `ns::Class::name`).
      fn.cls = run.toks[before - 1].text;
      fn.defined_out_of_class = true;
    } else if (cls >= 0) {
      fn.cls = prog_.classes[cls].name;
    }
    (void)scope;
    // Parameter list: detect lock-passing signatures and remember the
    // parameter names, so `lk.unlock()` in the body can suspend the
    // REQUIRES-implied held set.
    if (run.paren_close >= 0) {
      for (int k = run.fn_name + 1; k < run.paren_close; ++k) {
        const std::string& w = run.toks[k].text;
        if (w == "MutexLock" || w == "Lk") {
          fn.takes_lock_param = true;
          for (int j = k + 1; j < run.paren_close; ++j) {
            const std::string& p = run.toks[j].text;
            if (p == "&" || p == "*" || p == "const") continue;
            if (p == "," || p == ")") break;
            if (run.toks[j].ident) {
              fn.lock_params.push_back(p);
              break;
            }
          }
        }
      }
    }
    // Annotations after the parameter list.
    if (run.paren_close >= 0) {
      for (std::size_t k = run.paren_close; k < run.toks.size(); ++k) {
        const std::string& w = run.toks[k].text;
        auto args_of = [&](std::size_t at) {
          std::vector<std::string> args;
          std::string curarg;
          int depth = 0;
          for (std::size_t q = at; q < run.toks.size(); ++q) {
            const std::string& a = run.toks[q].text;
            if (a == "(") {
              depth++;
              if (depth == 1) continue;
            }
            if (a == ")") {
              depth--;
              if (depth == 0) break;
            }
            if (depth >= 1) {
              if (a == "," && depth == 1) {
                if (!curarg.empty()) args.push_back(curarg);
                curarg.clear();
              } else if (a != "this" && a != "->" && a != ".") {
                curarg += a;
              }
            }
          }
          if (!curarg.empty()) args.push_back(curarg);
          return args;
        };
        if (w == "ADETS_REQUIRES" || w == "ADETS_REQUIRES_SHARED") {
          for (auto& a : args_of(k + 1)) fn.requires_held.push_back(a);
        } else if (w == "ADETS_ACQUIRE" || w == "ADETS_ACQUIRE_SHARED") {
          for (auto& a : args_of(k + 1)) fn.acquires.push_back(a);
        } else if (w == "ADETS_RELEASE" || w == "ADETS_RELEASE_SHARED") {
          for (auto& a : args_of(k + 1)) fn.releases.push_back(a);
        } else if (w == "ADETS_NO_THREAD_SAFETY_ANALYSIS") {
          fn.no_analysis = true;
        } else if (w == "ADETS_MAY_BLOCK") {
          fn.may_block = true;
        } else if (w == "ADETS_NON_BLOCKING") {
          fn.non_blocking = true;
        }
      }
    }
    std::vector<Token> body;
    if (body_follows) {
      fn.has_body = true;
      const std::size_t start = pos_;
      skip_balanced("{", "}");
      body.assign(t_.begin() + static_cast<std::ptrdiff_t>(start),
                  t_.begin() + static_cast<std::ptrdiff_t>(pos_));
      if (!at_end() && cur().text == ";") pos_++;
    }
    if (cls >= 0 && !fn.defined_out_of_class) {
      prog_.classes[cls].methods.push_back(prog_.functions.size());
    }
    prog_.functions.push_back(std::move(fn));
    prog_.bodies_.push_back(std::move(body));
  }

  void emit_field(const DeclRun& run, int cls) {
    Field f;
    // Locate an annotation macro, the `=`, or fall back to the last
    // identifier to find the member name.
    int name_at = -1;
    for (std::size_t k = 0; k < run.toks.size(); ++k) {
      const std::string& w = run.toks[k].text;
      if ((w == "ADETS_GUARDED_BY" || w == "ADETS_PT_GUARDED_BY" ||
           w == "ADETS_GUARDED_BY_STATIC") &&
          k + 2 < run.toks.size() && run.toks[k + 1].text == "(") {
        // argument: joined tokens to the matching `)`
        std::string arg;
        int depth = 0;
        for (std::size_t q = k + 1; q < run.toks.size(); ++q) {
          if (run.toks[q].text == "(") {
            depth++;
            if (depth == 1) continue;
          }
          if (run.toks[q].text == ")") {
            depth--;
            if (depth == 0) break;
          }
          arg += run.toks[q].text;
        }
        f.guarded_by = arg;
        if (name_at < 0) {
          for (int q = static_cast<int>(k) - 1; q >= 0; --q) {
            if (run.toks[q].ident) {
              name_at = q;
              break;
            }
          }
        }
      }
      if (w == "=" && name_at < 0) {
        for (int q = static_cast<int>(k) - 1; q >= 0; --q) {
          if (run.toks[q].ident) {
            name_at = q;
            break;
          }
        }
      }
    }
    if (name_at < 0) {
      // Last identifier not inside a brace initialiser.
      int depth = 0;
      for (std::size_t k = 0; k < run.toks.size(); ++k) {
        const std::string& w = run.toks[k].text;
        if (w == "{" || w == "(") depth++;
        if (w == "}" || w == ")") depth--;
        if (depth == 0 && run.toks[k].ident) name_at = static_cast<int>(k);
      }
    }
    if (name_at < 0) return;
    f.name = run.toks[name_at].text;
    f.line = run.toks[name_at].line;
    std::string type;
    for (int k = 0; k < name_at; ++k) {
      const std::string& w = run.toks[k].text;
      if (w == "static") f.is_static = true;
      if (w == "const" || w == "constexpr") f.is_const = true;
      if (w == "&") f.is_const = true;  // reference binding is immutable
      if (w == "mutable") f.is_const = false;
      if (!type.empty() && run.toks[k].ident && run.toks[k - 1].ident) type += " ";
      type += w;
    }
    f.type = type;
    f.is_mutex = type_is_mutex(type);
    f.is_condvar = type_is_condvar(type);
    f.is_atomic = type_is_atomic(type);
    if (f.is_static && f.is_const) return;  // constants are not state
    if (f.name == "const") return;          // parse noise
    prog_.classes[cls].fields.push_back(std::move(f));
  }

  Program& prog_;
  std::string file_;
  std::vector<Token> t_;
  std::size_t pos_ = 0;
};

void Program::parse_file(const std::string& path, const std::string& content) {
  const std::vector<Line> lines = preprocess(content);
  std::vector<std::string> code;
  code.reserve(lines.size());
  for (const auto& l : lines) code.push_back(l.code);
  parse_tokens(path, tokenize(code));
}

void Program::parse_tokens(const std::string& path, std::vector<Token> tokens) {
  Parser(*this, path, std::move(tokens)).run();
}

std::string Program::unqualified(const std::string& name) {
  const std::size_t at = name.rfind("::");
  return at == std::string::npos ? name : name.substr(at + 2);
}

int Program::find_class(const std::string& name) const {
  const auto q = by_qualified_.find(name);
  if (q != by_qualified_.end()) return q->second;
  const auto u = by_unqualified_.find(unqualified(name));
  if (u != by_unqualified_.end() && u->second.size() == 1) return u->second[0];
  return -1;
}

const Field* Program::find_member(int cls, const std::string& member,
                                  int* owner) const {
  std::set<int> seen;
  std::vector<int> work{cls};
  while (!work.empty()) {
    const int at = work.back();
    work.pop_back();
    if (at < 0 || at >= static_cast<int>(classes.size()) || !seen.insert(at).second) {
      continue;
    }
    for (const auto& f : classes[at].fields) {
      if (f.name == member) {
        if (owner != nullptr) *owner = at;
        return &f;
      }
    }
    for (const auto& base : classes[at].bases) work.push_back(find_class(base));
  }
  return nullptr;
}

bool Program::derives_from(int cls, const std::string& base) const {
  std::set<int> seen;
  std::vector<int> work{cls};
  while (!work.empty()) {
    const int at = work.back();
    work.pop_back();
    if (at < 0 || at >= static_cast<int>(classes.size()) || !seen.insert(at).second) {
      continue;
    }
    if (unqualified(classes[at].name) == base) return true;
    for (const auto& b : classes[at].bases) {
      if (b == base) return true;
      work.push_back(find_class(b));
    }
  }
  return false;
}

std::string Program::mutex_key(int cls, const std::string& expr) const {
  // Strip `this->` / leading `*`/`&` and reject compound expressions.
  std::string e = expr;
  if (e.rfind("this->", 0) == 0) e = e.substr(6);
  while (!e.empty() && (e.front() == '*' || e.front() == '&')) e.erase(e.begin());
  if (e.empty() || !std::all_of(e.begin(), e.end(), is_ident_char)) return "";
  int owner = -1;
  const Field* f = find_member(cls, e, &owner);
  if (f == nullptr || !f->is_mutex) return "";
  return classes[owner].name + "::" + e;
}

std::vector<std::size_t> Program::resolve_call(const Function& from,
                                               const CallSite& call) const {
  const std::string key =
      from.cls + '\n' + call.callee + '\n' + call.receiver + '\n' + call.qualifier;
  const auto hit = resolve_memo_.find(key);
  if (hit != resolve_memo_.end()) return hit->second;
  std::vector<std::size_t> resolved = resolve_call_uncached(from, call);
  resolve_memo_.emplace(key, resolved);
  return resolved;
}

std::vector<std::size_t> Program::resolve_call_uncached(
    const Function& from, const CallSite& call) const {
  std::vector<std::size_t> out;
  auto methods_of = [&](int cls, bool include_derived) {
    std::set<int> wanted;
    std::set<int> seen;
    std::vector<int> work{cls};
    while (!work.empty()) {  // the class and its bases
      const int at = work.back();
      work.pop_back();
      if (at < 0 || !seen.insert(at).second) continue;
      wanted.insert(at);
      for (const auto& b : classes[at].bases) work.push_back(find_class(b));
    }
    if (include_derived && cls >= 0) {
      const std::string base_name = unqualified(classes[cls].name);
      for (std::size_t k = 0; k < classes.size(); ++k) {
        if (derives_from(static_cast<int>(k), base_name)) {
          wanted.insert(static_cast<int>(k));
        }
      }
    }
    for (const int k : wanted) {
      if (k < 0 || k >= static_cast<int>(classes.size())) continue;
      for (const std::size_t m : classes[k].methods) {
        if (functions[m].name == call.callee) out.push_back(m);
      }
    }
  };
  if (!call.qualifier.empty()) {
    methods_of(find_class(call.qualifier), false);
    return out;
  }
  if (call.receiver.empty()) {
    if (!from.cls.empty()) methods_of(find_class(from.cls), false);
    if (!out.empty()) return out;
    // Unique free function.
    std::vector<std::size_t> frees;
    for (std::size_t k = 0; k < functions.size(); ++k) {
      if (functions[k].cls.empty() && functions[k].name == call.callee) {
        frees.push_back(k);
      }
    }
    if (frees.size() == 1) return frees;
    return {};
  }
  // Receiver-typed: the receiver must be a member whose type names a
  // known class; virtual dispatch pulls in derived overrides.
  const int from_cls = from.cls.empty() ? -1 : find_class(from.cls);
  const Field* f = find_member(from_cls, call.receiver);
  if (f == nullptr) return {};
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const std::string uq = unqualified(classes[k].name);
    const std::regex word("\\b" + uq + "\\b");
    if (std::regex_search(f->type, word)) {
      methods_of(static_cast<int>(k), true);
      break;
    }
  }
  return out;
}

void Program::finalize() {
  by_qualified_.clear();
  by_unqualified_.clear();
  resolve_memo_.clear();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    by_qualified_[classes[k].name] = static_cast<int>(k);
    by_unqualified_[unqualified(classes[k].name)].push_back(static_cast<int>(k));
  }
  // Attach out-of-class definitions: resolve the class-name hint, adopt
  // the declaration's annotations and access, register as a method.
  for (std::size_t k = 0; k < functions.size(); ++k) {
    Function& fn = functions[k];
    if (!fn.defined_out_of_class) continue;
    const int cls = find_class(fn.cls);
    if (cls < 0) {
      fn.cls.clear();
      continue;
    }
    fn.cls = classes[cls].name;
    bool merged = false;
    for (const std::size_t m : classes[cls].methods) {
      Function& decl = functions[m];
      if (decl.name != fn.name || decl.has_body) continue;
      for (const auto& r : decl.requires_held) fn.requires_held.push_back(r);
      for (const auto& a : decl.acquires) fn.acquires.push_back(a);
      for (const auto& r : decl.releases) fn.releases.push_back(r);
      fn.is_public = decl.is_public;
      fn.no_analysis = fn.no_analysis || decl.no_analysis;
      fn.takes_lock_param = fn.takes_lock_param || decl.takes_lock_param;
      fn.may_block = fn.may_block || decl.may_block;
      fn.non_blocking = fn.non_blocking || decl.non_blocking;
      merged = true;
    }
    (void)merged;
    classes[cls].methods.push_back(k);
  }
  analyze_bodies();
}

void Program::analyze_bodies() {
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    Function& fn = functions[fi];
    if (fi >= bodies_.size() || bodies_[fi].empty()) continue;
    const std::vector<Token>& t = bodies_[fi];
    const int cls = fn.cls.empty() ? -1 : find_class(fn.cls);

    struct LockScope {
      std::string key;
      std::string var;
      int depth = 0;
      bool active = true;
    };
    std::vector<LockScope> scopes;
    std::set<std::string> manual;
    std::vector<std::string> base_held;
    // `lk.unlock()` on a MutexLock&/Lk& parameter suspends the
    // REQUIRES-implied set until a matching `lk.lock()`.
    bool base_suspended = false;
    for (const auto& r : fn.requires_held) {
      std::string key = mutex_key(cls, r);
      base_held.push_back(key.empty() ? r : key);
    }
    // Depths at which lambda bodies begin: code inside a lambda executes
    // later (another thread, a timer, a deferred callback), so it does
    // not inherit the enclosing function's held locks.
    std::vector<int> lambda_depths;
    auto held_now = [&]() {
      std::vector<std::string> h;
      const int lambda_floor = lambda_depths.empty() ? -1 : lambda_depths.back();
      if (lambda_floor < 0) {
        if (!base_suspended) h = base_held;
        for (const auto& m : manual) h.push_back(m);
      }
      for (const auto& s : scopes) {
        if (s.active && s.depth >= lambda_floor) h.push_back(s.key);
      }
      std::sort(h.begin(), h.end());
      h.erase(std::unique(h.begin(), h.end()), h.end());
      return h;
    };

    int depth = 0;
    std::string stmt;
    int stmt_line = 0;
    std::set<std::size_t> lambda_braces;  // token indexes of lambda `{`
    auto flush_stmt = [&]() {
      if (!stmt.empty()) fn.statements.push_back({stmt, stmt_line});
      stmt.clear();
      stmt_line = 0;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
      const Token& tk = t[i];
      if (tk.text == "{") {
        depth++;
        if (lambda_braces.count(i) > 0) lambda_depths.push_back(depth);
        flush_stmt();
        continue;
      }
      if (tk.text == "}") {
        for (auto& s : scopes) {
          if (s.depth >= depth) s.active = false;
        }
        depth--;
        if (!lambda_depths.empty() && depth < lambda_depths.back()) {
          lambda_depths.pop_back();
        }
        flush_stmt();
        continue;
      }
      if (tk.text == ";") {
        flush_stmt();
        continue;
      }
      if (stmt_line == 0) stmt_line = tk.line;
      if (!stmt.empty()) stmt += " ";
      stmt += tk.text;

      // Lambda introducer: mark the body-opening brace so code inside
      // it does not inherit the current held set.
      if (tk.text == "[") {
        std::size_t j = i;
        int bd = 0;
        while (j < t.size()) {
          if (t[j].text == "[") bd++;
          if (t[j].text == "]") bd--;
          j++;
          if (bd == 0) break;
        }
        if (j < t.size() && t[j].text == "(") {
          int pd = 0;
          while (j < t.size()) {
            if (t[j].text == "(") pd++;
            if (t[j].text == ")") pd--;
            j++;
            if (pd == 0) break;
          }
          // Trailing specifiers / return type before the body.
          std::size_t guard = 0;
          while (j < t.size() && guard++ < 12 &&
                 (t[j].ident || t[j].text == "->" || t[j].text == "::" ||
                  t[j].text == "<" || t[j].text == ">" || t[j].text == "*" ||
                  t[j].text == "&")) {
            j++;
          }
        }
        if (j < t.size() && t[j].text == "{") lambda_braces.insert(j);
        continue;
      }

      if (!tk.ident) continue;

      // Scoped lock declaration: LockType [<...>] var ( first-arg ... )
      if (lock_types().count(tk.text) > 0) {
        std::size_t j = i + 1;
        if (j < t.size() && t[j].text == "<") {
          int ad = 0;
          while (j < t.size()) {
            if (t[j].text == "<") ad++;
            if (t[j].text == ">") ad--;
            j++;
            if (ad == 0) break;
          }
        }
        if (j + 1 < t.size() && t[j].ident && t[j + 1].text == "(") {
          std::string arg;
          int pd = 0;
          for (std::size_t q = j + 1; q < t.size(); ++q) {
            if (t[q].text == "(") {
              pd++;
              if (pd == 1) continue;
            }
            if (t[q].text == ")") {
              pd--;
              if (pd == 0) break;
            }
            if (t[q].text == "," && pd == 1) break;
            if (t[q].text != "this" && t[q].text != "->") arg += t[q].text;
          }
          const std::string key = mutex_key(cls, arg);
          if (!key.empty()) {
            fn.acquisitions.push_back({key, t[j].line, held_now()});
            scopes.push_back({key, t[j].text, depth, true});
          }
        }
        continue;
      }

      // Member access: recv . name ( ... )  /  recv -> name ( ... )
      const bool memberish =
          i + 3 < t.size() && (t[i + 1].text == "." || t[i + 1].text == "->") &&
          t[i + 2].ident && t[i + 3].text == "(";
      if (memberish) {
        const std::string& recv = tk.text;
        const std::string& mname = t[i + 2].text;
        const int mline = t[i + 2].line;
        stmt += " " + t[i + 1].text + " " + mname;  // tokens consumed below
        if (mname == "lock" || mname == "unlock") {
          // Lock-passing parameter: toggles the REQUIRES-implied set.
          if (std::find(fn.lock_params.begin(), fn.lock_params.end(), recv) !=
              fn.lock_params.end()) {
            base_suspended = (mname == "unlock");
            i += 2;
            continue;
          }
          // Innermost lock variable with this name?
          LockScope* lv = nullptr;
          for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->var == recv) {
              lv = &*it;
              break;
            }
          }
          if (lv != nullptr) {
            if (mname == "lock") {
              fn.acquisitions.push_back({lv->key, mline, held_now()});
              lv->active = true;
            } else {
              lv->active = false;
            }
            i += 2;
            continue;
          }
          const std::string key = mutex_key(cls, recv);
          if (!key.empty()) {
            if (mname == "lock") {
              fn.acquisitions.push_back({key, mline, held_now()});
              manual.insert(key);
            } else {
              manual.erase(key);
            }
            i += 2;
            continue;
          }
        }
        if (mname.rfind("wait", 0) == 0) {
          const Field* f = find_member(cls, recv);
          if (f != nullptr && f->is_condvar) {
            fn.cv_waits.push_back({recv, mline, held_now(), !lambda_depths.empty()});
          }
        }
        if (const Field* rf = find_member(cls, recv);
            rf != nullptr && !rf->is_mutex && !rf->is_condvar) {
          fn.accesses.push_back({recv, tk.line, mutating_methods().count(mname) > 0});
        }
        fn.calls.push_back(
            {mname, recv, "", mline, held_now(), !lambda_depths.empty()});
        i += 2;  // resume after the method name; args scanned normally
        continue;
      }

      // Qualified call: Qual :: name ( ... )
      const bool qualified = i + 3 < t.size() && t[i + 1].text == "::" &&
                             t[i + 2].ident && t[i + 3].text == "(";
      if (qualified) {
        stmt += " :: " + t[i + 2].text;  // tokens consumed by the skip below
        fn.calls.push_back({t[i + 2].text, "", tk.text, t[i + 2].line, held_now(),
                            !lambda_depths.empty()});
        i += 2;
        continue;
      }

      // Direct member-field access (read or write classification).
      if (cls >= 0) {
        const bool after_access =
            i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                      t[i - 1].text == "::");
        const bool via_this = i >= 2 && t[i - 1].text == "->" &&
                              t[i - 2].text == "this";
        if (!after_access || via_this) {
          const Field* f = find_member(cls, tk.text);
          if (f != nullptr && !f->is_mutex && !f->is_condvar) {
            // Prefix ++/-- before the field token.
            bool write = i >= 2 && ((t[i - 1].text == "+" && t[i - 2].text == "+") ||
                                    (t[i - 1].text == "-" && t[i - 2].text == "-"));
            std::size_t j = i + 1;
            while (j < t.size() && t[j].text == "[") {  // skip subscripts
              int bd = 0;
              while (j < t.size()) {
                if (t[j].text == "[") bd++;
                if (t[j].text == "]") bd--;
                j++;
                if (bd == 0) break;
              }
            }
            if (!write && j < t.size()) {
              static const std::string ops = "+-*/%&|^";
              const std::string& nx = t[j].text;
              const std::string nx2 = j + 1 < t.size() ? t[j + 1].text : "";
              if (nx == "=" && nx2 != "=") {
                write = true;  // plain assignment
              } else if (nx.size() == 1 && ops.find(nx[0]) != std::string::npos &&
                         nx2 == "=") {
                write = true;  // compound assignment
              } else if ((nx == "+" && nx2 == "+") || (nx == "-" && nx2 == "-")) {
                write = true;  // postfix ++/--
              } else if ((nx == "." || nx == "->") && j + 2 < t.size() &&
                         t[j + 1].ident && t[j + 2].text == "(" &&
                         mutating_methods().count(nx2) > 0) {
                write = true;  // items_[k].push_back(...) after a subscript
              }
            }
            fn.accesses.push_back({tk.text, tk.line, write});
          }
        }
      }

      // Plain call: name ( ... )
      if (i + 1 < t.size() && t[i + 1].text == "(" &&
          non_call_keywords().count(tk.text) == 0 &&
          tk.text.rfind("ADETS_", 0) != 0) {
        const bool after_access = i > 0 && (t[i - 1].text == "." ||
                                            t[i - 1].text == "->" ||
                                            t[i - 1].text == "::");
        const bool after_type = i > 0 && t[i - 1].ident &&
                                lock_types().count(t[i - 1].text) > 0;
        if (!after_access && !after_type) {
          fn.calls.push_back(
              {tk.text, "", "", tk.line, held_now(), !lambda_depths.empty()});
        }
      }
    }
    flush_stmt();
  }
  bodies_.clear();
  bodies_.shrink_to_fit();
}

}  // namespace adets::sa
