#include "core/segment_parser.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace scperf {

std::string ProcessGraph::segment_name(const GraphSegment& s) const {
  return "S" + nodes[s.from].label.substr(1) + "-" +
         nodes[s.to].label.substr(1);
}

const GraphNode& ProcessGraph::node(const std::string& label) const {
  for (const GraphNode& n : nodes) {
    if (n.label == label) return n;
  }
  throw std::out_of_range("scperf: no graph node labelled " + label);
}

bool ProcessGraph::has_segment(const std::string& from_label,
                               const std::string& to_label) const {
  for (const GraphSegment& s : segments) {
    if (nodes[s.from].label == from_label && nodes[s.to].label == to_label) {
      return true;
    }
  }
  return false;
}

void ProcessGraph::write_dot(std::ostream& os) const {
  os << "digraph process {\n";
  for (const GraphNode& n : nodes) {
    os << "  " << n.label << " [label=\"" << n.label;
    if (!n.channel.empty()) os << "\\n" << n.channel;
    os << "\"];\n";
  }
  for (const GraphSegment& s : segments) {
    os << "  " << nodes[s.from].label << " -> " << nodes[s.to].label
       << " [label=\"S" << nodes[s.from].label.substr(1) << "-"
       << nodes[s.to].label.substr(1) << "\"];\n";
  }
  os << "}\n";
}

namespace {

/// Strips // and /* */ comments and the contents of string/char literals so
/// the lexical scan cannot be fooled by them.
std::string strip_noise(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLine, kBlock, kString, kChar } st = State::kCode;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLine;
          ++i;
        } else if (c == '/' && next == '*') {
          st = State::kBlock;
          ++i;
        } else if (c == '"') {
          st = State::kString;
          out += '"';
        } else if (c == '\'') {
          st = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          st = State::kCode;
          ++i;
        } else if (c == '\n') {
          out += '\n';  // keep line numbers stable
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = State::kCode;
          out += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
          out += '\'';
        }
        break;
    }
  }
  return out;
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if src matches `word` at i as a whole identifier.
bool word_at(const std::string& s, std::size_t i, const std::string& word) {
  if (s.compare(i, word.size(), word) != 0) return false;
  if (i > 0 && is_ident(s[i - 1])) return false;
  const std::size_t end = i + word.size();
  return end >= s.size() || !is_ident(s[end]);
}

/// Finds the matching ')' for the '(' at `open` (must point at '(').
std::size_t match_paren(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

struct Block {
  enum class Kind { kDo, kWhile, kFor, kIf, kElse, kPlain } kind;
  bool infinite = false;                   ///< loop condition literally true
  std::vector<std::size_t> entry_dangling; ///< dangling preds at block entry
  std::vector<std::size_t> then_dangling;  ///< kElse: dangling after `then`
  std::size_t first_node = SIZE_MAX;       ///< first node inside (loops)
  bool contains_node = false;
};

}  // namespace

ProcessGraph parse_process_body(const std::string& source) {
  const std::string src = strip_noise(source);

  ProcessGraph g;
  g.nodes.push_back({GraphNode::Kind::kEntry, "N0", "", 1, 0});
  std::vector<std::size_t> dangling{0};
  std::vector<Block> stack;
  int next_label = 1;
  std::size_t line = 1;

  const auto add_node = [&](GraphNode::Kind kind, std::string channel) {
    GraphNode n;
    n.kind = kind;
    n.label = "N" + std::to_string(next_label++);
    n.channel = std::move(channel);
    n.line = line;
    n.loop_depth = static_cast<int>(
        std::count_if(stack.begin(), stack.end(), [](const Block& b) {
          return b.kind == Block::Kind::kDo || b.kind == Block::Kind::kWhile ||
                 b.kind == Block::Kind::kFor;
        }));
    g.nodes.push_back(n);
    const std::size_t idx = g.nodes.size() - 1;
    for (std::size_t p : dangling) g.segments.push_back({p, idx});
    dangling.assign(1, idx);
    for (Block& b : stack) {
      if (!b.contains_node &&
          (b.kind == Block::Kind::kDo || b.kind == Block::Kind::kWhile ||
           b.kind == Block::Kind::kFor)) {
        b.first_node = idx;
      }
      b.contains_node = true;
    }
    return idx;
  };

  const auto merge_into_dangling = [&](const std::vector<std::size_t>& more) {
    for (std::size_t p : more) {
      if (std::find(dangling.begin(), dangling.end(), p) == dangling.end()) {
        dangling.push_back(p);
      }
    }
  };

  bool pending_header = false;  // the next '{' belongs to a control block
  std::size_t i = 0;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    // ---- control keywords ----
    if (word_at(src, i, "do")) {
      stack.push_back({Block::Kind::kDo, false, dangling, {}, SIZE_MAX, false});
      pending_header = true;
      i += 2;
      continue;
    }
    if (word_at(src, i, "while") || word_at(src, i, "for") ||
        word_at(src, i, "if")) {
      const bool is_for = word_at(src, i, "for");
      const bool is_if = word_at(src, i, "if");
      const std::size_t kw_len = is_if ? 2 : (is_for ? 3 : 5);
      const std::size_t open = src.find('(', i + kw_len);
      const std::size_t close =
          open == std::string::npos ? std::string::npos : match_paren(src, open);
      if (close == std::string::npos) {
        i += kw_len;
        continue;
      }
      const std::string cond = src.substr(open + 1, close - open - 1);
      line += static_cast<std::size_t>(
          std::count(src.begin() + static_cast<long>(i),
                     src.begin() + static_cast<long>(close), '\n'));
      // A `while (...)` directly after a do-block's `}` was consumed there;
      // here it always opens a new block.
      Block b;
      b.kind = is_if ? Block::Kind::kIf
                     : (is_for ? Block::Kind::kFor : Block::Kind::kWhile);
      b.infinite =
          !is_if && (cond.find("true") != std::string::npos || cond == ";;");
      b.entry_dangling = dangling;
      stack.push_back(b);
      pending_header = true;
      i = close + 1;
      continue;
    }
    if (word_at(src, i, "else")) {
      // `else` re-opens the branch point of the just-closed if: the closing
      // '}' handler stashed the then-branch dangling set in pending_else_.
      // Handled below via the stack: the if-close pushed a kElse marker.
      i += 4;
      continue;
    }
    // ---- nodes ----
    if (word_at(src, i, "wait")) {
      const std::size_t open = src.find('(', i + 4);
      if (open != std::string::npos && open <= i + 6) {
        add_node(GraphNode::Kind::kTimedWait, "");
        i = match_paren(src, open);
        if (i == std::string::npos) break;
        ++i;
        continue;
      }
    }
    if (c == '.' &&
        (word_at(src, i + 1, "read") || word_at(src, i + 1, "write"))) {
      const bool is_read = word_at(src, i + 1, "read");
      // channel name: identifier before the '.'
      std::size_t b = i;
      while (b > 0 && is_ident(src[b - 1])) --b;
      const std::string channel = src.substr(b, i - b);
      if (!channel.empty()) {
        add_node(is_read ? GraphNode::Kind::kChannelRead
                         : GraphNode::Kind::kChannelWrite,
                 channel);
      }
      i += is_read ? 5 : 6;
      continue;
    }
    // ---- block structure ----
    if (c == '{') {
      // A control header (do/while/for/if/else) owns the next '{'; any
      // other brace opens a plain scope.
      if (pending_header) {
        pending_header = false;
      } else {
        stack.push_back(
            {Block::Kind::kPlain, false, dangling, {}, SIZE_MAX, false});
      }
      ++i;
      continue;
    }
    if (c == '}') {
      if (stack.empty()) {
        ++i;
        continue;
      }
      Block b = stack.back();
      stack.pop_back();
      switch (b.kind) {
        case Block::Kind::kPlain:
          break;
        case Block::Kind::kIf: {
          // Peek for an `else`.
          std::size_t j = i + 1;
          while (j < src.size() &&
                 std::isspace(static_cast<unsigned char>(src[j])) != 0) {
            if (src[j] == '\n') ++line;
            ++j;
          }
          if (word_at(src, j, "else")) {
            Block e;
            e.kind = Block::Kind::kElse;
            e.then_dangling = dangling;       // end of the then branch
            e.entry_dangling = b.entry_dangling;
            dangling = b.entry_dangling;      // else starts at the branch point
            stack.push_back(e);
            pending_header = true;
            i = j + 4;
            continue;
          }
          // No else: fall-through edge from the branch point.
          merge_into_dangling(b.entry_dangling);
          break;
        }
        case Block::Kind::kElse:
          merge_into_dangling(b.then_dangling);
          break;
        case Block::Kind::kDo: {
          // Consume the trailing `while (...)`.
          std::size_t j = i + 1;
          while (j < src.size() &&
                 std::isspace(static_cast<unsigned char>(src[j])) != 0) {
            if (src[j] == '\n') ++line;
            ++j;
          }
          bool infinite = false;
          if (word_at(src, j, "while")) {
            const std::size_t open = src.find('(', j);
            const std::size_t close =
                open == std::string::npos ? std::string::npos
                                          : match_paren(src, open);
            if (close != std::string::npos) {
              infinite = src.substr(open, close - open).find("true") !=
                         std::string::npos;
              i = close;  // advance past the condition (++i below)
            }
          }
          if (b.contains_node && b.first_node != SIZE_MAX) {
            for (std::size_t p : dangling) {
              g.segments.push_back({p, b.first_node});
            }
          }
          if (infinite) {
            dangling.clear();
          }
          break;
        }
        case Block::Kind::kWhile:
        case Block::Kind::kFor: {
          if (b.contains_node && b.first_node != SIZE_MAX) {
            for (std::size_t p : dangling) {
              g.segments.push_back({p, b.first_node});
            }
          }
          if (b.infinite) {
            dangling.clear();
          } else if (b.contains_node) {
            // The loop exit can be reached after iterations (from the
            // body's last node) or with zero iterations (from the entry).
            merge_into_dangling(b.entry_dangling);
          }
          break;
        }
      }
      ++i;
      continue;
    }
    ++i;
  }

  if (!dangling.empty()) {
    GraphNode exit_node;
    exit_node.kind = GraphNode::Kind::kExit;
    exit_node.label = "N" + std::to_string(next_label++);
    exit_node.channel = "";
    exit_node.line = line;
    g.nodes.push_back(exit_node);
    const std::size_t idx = g.nodes.size() - 1;
    for (std::size_t p : dangling) g.segments.push_back({p, idx});
  }
  return g;
}

}  // namespace scperf
