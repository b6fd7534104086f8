#include "text/tokenizer.h"

#include <cctype>

namespace doppio {

std::vector<std::string> TokenizeWords(std::string_view text,
                                       size_t min_length) {
  std::vector<std::string> words;
  std::string current;
  auto flush = [&]() {
    if (current.size() >= min_length) words.push_back(current);
    current.clear();
  };
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      flush();
    }
  }
  flush();
  return words;
}

}  // namespace doppio
