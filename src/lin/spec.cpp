#include "lin/spec.hpp"

#include <map>
#include <utility>

namespace adets::lin {

namespace {

common::Bytes to_bytes(const std::string& s) {
  return common::Bytes(s.begin(), s.end());
}

std::string from_writer(common::Writer& w) {
  const common::Bytes bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

// --- KV state --------------------------------------------------------------

using KvState = std::map<std::string, std::string>;

KvState parse_kv(const std::string& state) {
  const common::Bytes bytes = to_bytes(state);
  common::Reader r(bytes);
  KvState map;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    map[std::move(key)] = r.str();
  }
  return map;
}

std::string serialize_kv(const KvState& map) {
  common::Writer w;
  w.u32(static_cast<std::uint32_t>(map.size()));
  for (const auto& [key, value] : map) {  // std::map: canonical order
    w.str(key);
    w.str(value);
  }
  return from_writer(w);
}

}  // namespace

// --- KvSpec ----------------------------------------------------------------

std::string KvSpec::initial_state() const { return serialize_kv({}); }

std::optional<std::string> KvSpec::apply(const std::string& state,
                                         const Operation& op) const {
  KvState map = parse_kv(state);
  common::Reader args(op.args);
  common::Reader result(op.result);

  if (op.method == "put") {
    const std::string key = args.str();
    const std::string value = args.str();
    const bool existed = map.count(key) > 0;
    if (result.boolean() != existed) return std::nullopt;
    map[key] = value;
    return serialize_kv(map);
  }
  if (op.method == "get") {
    const std::string key = args.str();
    const auto it = map.find(key);
    const bool exists = it != map.end();
    if (result.boolean() != exists) return std::nullopt;
    if (result.str() != (exists ? it->second : std::string())) return std::nullopt;
    return state;  // read-only
  }
  if (op.method == "remove") {
    const std::string key = args.str();
    const bool existed = map.erase(key) > 0;
    if (result.boolean() != existed) return std::nullopt;
    return serialize_kv(map);
  }
  if (op.method == "cas") {
    const std::string key = args.str();
    const std::string expected = args.str();
    const std::string value = args.str();
    const auto it = map.find(key);
    const bool success = it != map.end() && it->second == expected;
    if (result.boolean() != success) return std::nullopt;
    if (!success) return state;
    it->second = value;
    return serialize_kv(map);
  }
  if (op.method == "size") {
    if (result.u64() != map.size()) return std::nullopt;
    return state;
  }
  if (op.method == "watch") {
    // The changed-flag reflects whether the bounded wait saw a version
    // bump — a duration property no single linearization point decides —
    // so only the returned value is checked against the current state.
    const std::string key = args.str();
    (void)result.boolean();
    const auto it = map.find(key);
    if (result.str() != (it != map.end() ? it->second : std::string())) {
      return std::nullopt;
    }
    return state;
  }
  return std::nullopt;  // unknown method can never linearize
}

std::optional<std::string> KvSpec::apply_pending(const std::string& state,
                                                const Operation& op) const {
  // Every KvStore method's *effect* is a deterministic function of the
  // state; only the reply (unobserved here) is unconstrained.
  KvState map = parse_kv(state);
  common::Reader args(op.args);
  if (op.method == "put") {
    const std::string key = args.str();
    map[key] = args.str();
    return serialize_kv(map);
  }
  if (op.method == "remove") {
    map.erase(args.str());
    return serialize_kv(map);
  }
  if (op.method == "cas") {
    const std::string key = args.str();
    const std::string expected = args.str();
    const std::string value = args.str();
    const auto it = map.find(key);
    if (it != map.end() && it->second == expected) it->second = value;
    return serialize_kv(map);
  }
  if (op.method == "get" || op.method == "size" || op.method == "watch") {
    return state;  // read-only
  }
  return std::nullopt;
}

std::optional<std::string> KvSpec::partition_of(const Operation& op) const {
  if (op.method == "size") return std::nullopt;  // touches every key
  common::Reader args(op.args);
  return args.str();  // every other method is keyed by its first arg
}

std::string KvSpec::describe(const Operation& op) const {
  try {
    common::Reader args(op.args);
    std::string out = op.method + "(";
    if (op.method == "put") {
      out += args.str();
      out += ", " + args.str();
    } else if (op.method == "cas") {
      out += args.str();
      out += ", " + args.str();
      out += ", " + args.str();
    } else if (op.method == "get" || op.method == "remove" ||
               op.method == "watch") {
      out += args.str();
    }
    out += ")";
    if (op.pending()) return out + " -> pending";
    common::Reader result(op.result);
    if (op.method == "put" || op.method == "remove" || op.method == "cas") {
      return out + " -> " + (result.boolean() ? "true" : "false");
    }
    if (op.method == "get" || op.method == "watch") {
      const bool flag = result.boolean();
      return out + " -> (" + (flag ? "true" : "false") + ", \"" +
             result.str() + "\")";
    }
    if (op.method == "size") return out + " -> " + std::to_string(result.u64());
    return out;
  } catch (const common::SerializationError&) {
    return to_string(op);  // fall back to the raw rendering
  }
}

// --- registry --------------------------------------------------------------

std::unique_ptr<SequentialSpec> make_spec(const std::string& name) {
  if (name == "kv") return std::make_unique<KvSpec>();
  return nullptr;
}

}  // namespace adets::lin
