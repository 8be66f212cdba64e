#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace libra {

std::atomic<bool> Profiler::enabled_{false};

Profiler& Profiler::instance() {
  static Profiler* p = new Profiler();  // leaky: outlives thread-local dtors
  return *p;
}

ThreadProfile& Profiler::thread_profile() {
  static thread_local ThreadProfile tls;
  return tls;
}

ThreadProfile::ThreadProfile() {
  nodes_.reserve(64);
  nodes_.push_back(Node{});
  Profiler::instance().register_thread(this);
}

ThreadProfile::~ThreadProfile() { Profiler::instance().unregister_thread(this); }

void Profiler::register_thread(ThreadProfile* tp) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(tp);
}

void Profiler::unregister_thread(ThreadProfile* tp) {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.erase(std::remove(threads_.begin(), threads_.end(), tp),
                 threads_.end());
  // Keep the dying thread's spans until the next reset(): a short-lived
  // worker must show up in the merged report even after it joined.
  if (tp->nodes_.size() > 1) retired_.push_back(std::move(tp->nodes_));
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ThreadProfile* tp : threads_) tp->clear();
  retired_.clear();
}

std::size_t Profiler::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = retired_.size();
  for (const ThreadProfile* tp : threads_) {
    if (tp->nodes_.size() > 1) ++n;
  }
  return n;
}

void ProfScope::begin(const char* name) {
  tp_ = &Profiler::thread_profile();
  node_ = tp_->enter(name);
  start_ = std::chrono::steady_clock::now();
}

void ProfScope::end() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  tp_->exit(node_, static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                           .count()));
}

namespace {

ProfileStats& child_named(ProfileStats& parent, const char* name) {
  // Keep children sorted by name so merge output is independent of thread
  // registration order and node discovery order.
  auto it = std::lower_bound(
      parent.children.begin(), parent.children.end(), name,
      [](const ProfileStats& s, const char* n) { return s.name < n; });
  if (it != parent.children.end() && it->name == name) return *it;
  ProfileStats fresh;
  fresh.name = name;
  return *parent.children.insert(it, std::move(fresh));
}

void merge_node(const std::vector<ThreadProfile::Node>& nodes,
                std::uint32_t idx, ProfileStats& into) {
  const ThreadProfile::Node& n = nodes[idx];
  if (into.count == 0) {
    into.min_ns = n.min_ns;
  } else if (n.count > 0) {
    into.min_ns = std::min(into.min_ns, n.min_ns);
  }
  into.max_ns = std::max(into.max_ns, n.max_ns);
  into.count += n.count;
  into.total_ns += n.total_ns;
  into.child_ns += n.child_ns;
  for (std::uint32_t c : n.children) {
    merge_node(nodes, c, child_named(into, nodes[c].name));
  }
}

void write_json_node(const ProfileStats& s, JsonWriter& w) {
  w.begin_object();
  w.key("name").value(s.name);
  w.key("count").value(s.count);
  w.key("total_ns").value(s.total_ns);
  w.key("self_ns").value(s.self_ns());
  w.key("min_ns").value(s.min_ns);
  w.key("max_ns").value(s.max_ns);
  if (!s.children.empty()) {
    w.key("children").begin_array();
    for (const ProfileStats& c : s.children) write_json_node(c, w);
    w.end_array();
  }
  w.end_object();
}

void write_text_node(const ProfileStats& s, std::uint64_t parent_total_ns,
                     int depth, std::string& out) {
  const double total_ms = static_cast<double>(s.total_ns) / 1e6;
  const double self_ms = static_cast<double>(s.self_ns()) / 1e6;
  const double pct = parent_total_ns > 0
                         ? 100.0 * static_cast<double>(s.total_ns) /
                               static_cast<double>(parent_total_ns)
                         : 100.0;
  char head[64];
  std::snprintf(head, sizeof(head), "%10.3f %5.1f%% %10.3f %12llu  ", total_ms,
                pct, self_ms, static_cast<unsigned long long>(s.count));
  out += head;
  out.append(static_cast<std::size_t>(2 * depth), ' ');
  out += s.name;
  out += '\n';
  // Widest subtree first: the flame-style reading order.
  std::vector<const ProfileStats*> kids;
  kids.reserve(s.children.size());
  for (const ProfileStats& c : s.children) kids.push_back(&c);
  std::stable_sort(kids.begin(), kids.end(),
                   [](const ProfileStats* a, const ProfileStats* b) {
                     return a->total_ns > b->total_ns;
                   });
  for (const ProfileStats* c : kids) write_text_node(*c, s.total_ns, depth + 1, out);
}

}  // namespace

ProfileStats Profiler::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileStats root;
  root.name = "total";
  for (const ThreadProfile* tp : threads_) {
    const ThreadProfile::Node& r = tp->nodes_[0];
    for (std::uint32_t c : r.children) {
      merge_node(tp->nodes_, c, child_named(root, tp->nodes_[c].name));
    }
  }
  for (const std::vector<ThreadProfile::Node>& nodes : retired_) {
    for (std::uint32_t c : nodes[0].children) {
      merge_node(nodes, c, child_named(root, nodes[c].name));
    }
  }
  // The synthetic root is never timed: derive its totals from the top-level
  // spans so percent-of-total reads correctly in reports.
  for (const ProfileStats& c : root.children) {
    root.total_ns += c.total_ns;
    root.count += c.count;
  }
  return root;
}

std::string Profiler::to_json() const {
  ProfileStats root = merged();
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("threads").value(static_cast<std::uint64_t>(thread_count()));
  w.key("tree");
  write_json_node(root, w);
  w.end_object();
  return out;
}

std::string Profiler::text_report() const {
  ProfileStats root = merged();
  std::string out;
  out += "  total ms     %    self ms        count  span\n";
  out += "---------- ------ ---------- ------------  ----------------\n";
  if (root.children.empty()) {
    out += "(no spans recorded; is the profiler enabled?)\n";
    return out;
  }
  write_text_node(root, root.total_ns, 0, out);
  return out;
}

}  // namespace libra
