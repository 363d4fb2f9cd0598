#include "bio/io.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace raxh {

namespace {

[[noreturn]] void parse_error(const std::string& what) {
  throw std::runtime_error("alignment parse error: " + what);
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) parse_error("cannot open file '" + path + "'");
  return in;
}

std::ofstream create_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) parse_error("cannot create file '" + path + "'");
  return out;
}

bool is_sequence_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '-' || c == '?' ||
         c == '.';
}

}  // namespace

Alignment read_phylip(std::istream& in) {
  std::size_t taxa = 0, sites = 0;
  if (!(in >> taxa >> sites) || taxa == 0 || sites == 0)
    parse_error("PHYLIP header must be '<taxa> <sites>'");

  // The header counts are untrusted (raxhd parses tenant SUBMIT bodies
  // here): nothing is reserved from them, so storage grows only with the
  // data actually read.
  std::vector<std::string> names;
  std::vector<std::vector<DnaState>> rows;
  in.ignore();  // rest of the header line

  // Relaxed PHYLIP, sequential (wrapped) or interleaved, parsed per LINE:
  //  * while names are missing, a line starts a new taxon when no row is
  //    incomplete or its first token contains a non-sequence character
  //    (caveat: an interleaved taxon literally named e.g. "ACGT" is
  //    indistinguishable from data — rename such taxa);
  //  * data lines extend the least-filled row (lowest index on ties), which
  //    reduces to "continue the current taxon" for sequential files and to
  //    per-block round-robin for interleaved ones.
  auto all_sequence_chars = [](const std::string& s) {
    for (char c : s)
      if (!is_sequence_char(c)) return false;
    return true;
  };
  auto least_filled_row = [&]() -> long {
    long best = -1;
    std::size_t best_size = sites;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].size() < best_size) {
        best_size = rows[r].size();
        best = static_cast<long>(r);
      }
    }
    return best;  // -1 when every row is complete
  };
  auto append_data = [&](std::size_t row, const std::string& token) {
    for (char c : token) {
      if (!is_sequence_char(c))
        parse_error(std::string("unexpected character '") + c +
                    "' in sequence");
      if (rows[row].size() >= sites)
        parse_error("more sequence data than declared for taxon '" +
                    names[row] + "'");
      rows[row].push_back(encode_dna(c));
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // blank line (block separator)

    const bool any_incomplete = least_filled_row() >= 0;
    const bool is_name_line =
        names.size() < taxa &&
        (rows.empty() || !any_incomplete || !all_sequence_chars(first));
    if (is_name_line) {
      names.push_back(first);
      rows.emplace_back();
      std::string token;
      while (tokens >> token) append_data(rows.size() - 1, token);
      continue;
    }

    const long target = least_filled_row();
    if (target < 0) parse_error("more sequence data than declared");
    append_data(static_cast<std::size_t>(target), first);
    std::string token;
    while (tokens >> token)
      append_data(static_cast<std::size_t>(target), token);
  }

  if (names.size() != taxa)
    parse_error("declared " + std::to_string(taxa) + " taxa, found " +
                std::to_string(names.size()));
  for (std::size_t t = 0; t < taxa; ++t)
    if (rows[t].size() != sites)
      parse_error("taxon '" + names[t] + "' has " +
                  std::to_string(rows[t].size()) + " sites, expected " +
                  std::to_string(sites));
  return Alignment(std::move(names), std::move(rows));
}

Alignment read_phylip_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_phylip(in);
}

void write_phylip(std::ostream& out, const Alignment& alignment) {
  out << alignment.num_taxa() << ' ' << alignment.num_sites() << '\n';
  for (std::size_t t = 0; t < alignment.num_taxa(); ++t) {
    out << alignment.name(t) << ' ';
    for (DnaState s : alignment.row(t)) out << decode_dna(s);
    out << '\n';
  }
}

void write_phylip_file(const std::string& path, const Alignment& alignment) {
  auto out = create_or_throw(path);
  write_phylip(out, alignment);
}

Alignment read_fasta(std::istream& in) {
  std::vector<std::string> names;
  std::vector<std::vector<DnaState>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      std::string name = line.substr(1);
      // Name is the first whitespace-delimited token of the header.
      const auto end = name.find_first_of(" \t\r");
      if (end != std::string::npos) name.resize(end);
      if (name.empty()) parse_error("FASTA header with empty name");
      names.push_back(std::move(name));
      rows.emplace_back();
    } else {
      if (rows.empty()) parse_error("FASTA sequence data before first header");
      for (char c : line) {
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        if (!is_sequence_char(c))
          parse_error(std::string("unexpected character '") + c +
                      "' in sequence");
        rows.back().push_back(encode_dna(c));
      }
    }
  }
  if (names.empty()) parse_error("empty FASTA input");
  for (std::size_t t = 1; t < rows.size(); ++t)
    if (rows[t].size() != rows[0].size())
      parse_error("FASTA sequences have unequal lengths (not an alignment)");
  return Alignment(std::move(names), std::move(rows));
}

Alignment read_fasta_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_fasta(in);
}

void write_fasta(std::ostream& out, const Alignment& alignment) {
  constexpr std::size_t kWrap = 70;
  for (std::size_t t = 0; t < alignment.num_taxa(); ++t) {
    out << '>' << alignment.name(t) << '\n';
    const auto row = alignment.row(t);
    for (std::size_t i = 0; i < row.size(); i += kWrap) {
      const std::size_t end = std::min(i + kWrap, row.size());
      for (std::size_t j = i; j < end; ++j) out << decode_dna(row[j]);
      out << '\n';
    }
  }
}

void write_fasta_file(const std::string& path, const Alignment& alignment) {
  auto out = create_or_throw(path);
  write_fasta(out, alignment);
}

}  // namespace raxh
