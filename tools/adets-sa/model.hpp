// adets-sa program model: a declaration- and scope-aware view of the
// tree's own structure, built lexically (no compiler front end).
//
// preprocess() strips comments and literal contents line by line; the
// tokenizer and a recursive scope walker then recognise the subset of
// C++ this repository actually writes: namespaces, (nested) classes,
// member fields with ADETS_* thread-safety annotations, member/free
// function declarations and definitions, `common::Mutex` /
// `common::CondVar` / raw `std::mutex` members, and `MutexLock`-style
// scoped acquisitions inside bodies.  It is deliberately approximate --
// the analysis passes (sa.hpp) are written so that imprecision
// surfaces as a suppressible finding or a missing edge, never a crash.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace adets::sa {

/// One source line after preprocessing: code with comments removed and
/// string/char literal contents blanked (delimiters kept), plus the
/// comment text (where `adets-sa:allow` markers live).
struct Line {
  std::string code;
  std::string comment;
};

/// Splits source into lines, stripping comments and literal contents
/// from the code part.  Handles line comments, block comments, ordinary
/// and raw (`R"delim(...)delim"`) string literals, char literals, digit
/// separators, and backslash line continuations inside literals and
/// line comments; line numbering is preserved through all of them.
std::vector<Line> preprocess(const std::string& content);

struct Token {
  std::string text;
  int line = 0;
  bool ident = false;  // identifier or keyword (vs punctuation/literal)
};

/// One data member of a class.
struct Field {
  std::string name;
  std::string type;  // joined type tokens, e.g. "std::vector<GrantRecord>"
  int line = 0;
  /// Mutex member name from ADETS_GUARDED_BY / ADETS_PT_GUARDED_BY /
  /// ADETS_GUARDED_BY_STATIC; empty when unannotated.
  std::string guarded_by;
  bool is_mutex = false;    // common::Mutex or raw std::mutex family
  bool is_condvar = false;  // common::CondVar or std::condition_variable
  bool is_atomic = false;
  bool is_const = false;  // const/constexpr or reference member
  bool is_static = false;
};

/// One call site inside a function body.
struct CallSite {
  std::string callee;     // unqualified name
  std::string receiver;   // `x` of `x.f()` / `x->f()`, or ""
  std::string qualifier;  // `C` of `C::f()`, or ""
  int line = 0;
  /// Mutex keys ("Class::member") held when the call is made.
  std::vector<std::string> held;
  /// Inside a lambda body: runs later, possibly on another thread, so
  /// effects do not propagate to the enclosing function.
  bool deferred = false;
};

/// One direct acquisition of a member mutex (MutexLock ctor, .lock()).
struct Acquisition {
  std::string mutex_key;  // "Class::member"
  int line = 0;
  std::vector<std::string> held;  // keys held *before* this acquisition
};

/// One `cv.wait*(...)` on a member condvar.
struct CondVarWait {
  std::string condvar;  // member name
  int line = 0;
  /// Mutex keys ("Class::member") held when the wait starts.
  std::vector<std::string> held;
  bool deferred = false;  // inside a lambda body (see CallSite)
};

/// One textual read or write of a member field inside a function body
/// (the grant-path-write audit consumes the writes).
struct FieldAccess {
  std::string field;  // unqualified member name
  int line = 0;
  bool is_write = false;
};

/// One flattened statement (for the intra-procedural taint pass).
struct Statement {
  std::string text;  // tokens joined by single spaces
  int line = 0;
};

struct Function {
  std::string name;  // unqualified ("submit", "operator=", "~Foo")
  std::string cls;   // qualified owning class, or "" for free functions
  std::string file;
  int line = 0;
  bool is_public = false;
  bool has_body = false;
  bool no_analysis = false;  // ADETS_NO_THREAD_SAFETY_ANALYSIS
  bool defined_out_of_class = false;
  /// Takes a MutexLock&/Lk& parameter -- a lock-passing signature, so a
  /// REQUIRES annotation on a public method is satisfiable by callers.
  bool takes_lock_param = false;
  /// Declared as potentially blocking (ADETS_MAY_BLOCK): condvar waits,
  /// queue pops, network sends, user upcalls.  Root facts for the
  /// interprocedural may-block effect analysis.
  bool may_block = false;
  /// Declared as never parking (ADETS_NON_BLOCKING) despite lexical
  /// appearances -- e.g. a join of threads already known finished.
  bool non_blocking = false;
  /// Parameter names of MutexLock&/Lk& parameters; `name.unlock()` on
  /// one of these suspends the REQUIRES-implied held set.
  std::vector<std::string> lock_params;
  /// Raw annotation arguments (member names as written, e.g. "mon_").
  std::vector<std::string> requires_held;
  std::vector<std::string> acquires;
  std::vector<std::string> releases;

  // Derived by analyze_bodies():
  std::vector<CallSite> calls;
  std::vector<Acquisition> acquisitions;
  std::vector<CondVarWait> cv_waits;
  std::vector<Statement> statements;
  std::vector<FieldAccess> accesses;  // member-field reads/writes
};

struct Class {
  std::string name;  // qualified by namespace and outer class
  std::string file;
  int line = 0;
  std::vector<std::string> bases;  // unqualified base-class names
  std::vector<Field> fields;
  std::vector<std::size_t> methods;  // indexes into Program::functions

  [[nodiscard]] bool owns_mutex() const {
    for (const auto& f : fields) {
      if (f.is_mutex) return true;
    }
    return false;
  }
  [[nodiscard]] bool owns_condvar() const {
    for (const auto& f : fields) {
      if (f.is_condvar) return true;
    }
    return false;
  }
};

class Program {
 public:
  std::vector<Class> classes;
  std::vector<Function> functions;

  /// Parses one preprocessed source into the model.  Call once per file;
  /// then finalize() exactly once.
  void parse_file(const std::string& path, const std::string& content);

  /// Like parse_file, but from an already-tokenized stream (the scan
  /// driver memoizes preprocess+tokenize per file; see sa.cpp).
  void parse_tokens(const std::string& path, std::vector<Token> tokens);

  /// Attaches out-of-class definitions to their in-class declarations
  /// (merging annotations and access), resolves inheritance, and runs
  /// body analysis (lock scopes, call sites, statements).
  void finalize();

  // --- lookups (valid after finalize) -----------------------------------
  /// Index of a class by qualified name, or unqualified name when that
  /// is unambiguous; -1 if unknown.
  [[nodiscard]] int find_class(const std::string& name) const;
  /// The field `member` of `cls` or any (transitive) base; nullptr when
  /// absent.  `owner` receives the index of the defining class.
  [[nodiscard]] const Field* find_member(int cls, const std::string& member,
                                         int* owner = nullptr) const;
  /// True if `cls` derives (transitively) from a class whose unqualified
  /// name is `base`.
  [[nodiscard]] bool derives_from(int cls, const std::string& base) const;
  /// Candidate functions a call may land on (same-class first, then
  /// receiver-typed, then unique global).  Indexes into `functions`.
  [[nodiscard]] std::vector<std::size_t> resolve_call(const Function& from,
                                                      const CallSite& call) const;
  /// "Class::member" key for a mutex member reachable from `cls`;
  /// empty when `expr` does not name a known mutex member.
  [[nodiscard]] std::string mutex_key(int cls, const std::string& expr) const;
  /// Unqualified tail of a qualified class name.
  static std::string unqualified(const std::string& name);

 private:
  void analyze_bodies();
  [[nodiscard]] std::vector<std::size_t> resolve_call_uncached(
      const Function& from, const CallSite& call) const;

  std::map<std::string, int> by_qualified_;
  /// Resolution depends only on (caller class, callee, receiver,
  /// qualifier); the fixpoint passes re-resolve the same sites every
  /// iteration, so cache by that key.  Cleared by finalize().
  mutable std::map<std::string, std::vector<std::size_t>> resolve_memo_;
  std::map<std::string, std::vector<int>> by_unqualified_;
  // Raw token bodies, held until analyze_bodies() consumes them.
  friend class Parser;
  std::vector<std::vector<Token>> bodies_;  // parallel to functions
};

/// Tokenizes preprocessed code lines (identifiers, numbers, `::`, `->`,
/// single punctuation; string literals appear as `""`).  Preprocessor
/// directive lines are dropped.
std::vector<Token> tokenize(const std::vector<std::string>& code_lines);

}  // namespace adets::sa
