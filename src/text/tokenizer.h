// Word tokenizer feeding the inverted index behind CONTAINS.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace doppio {

/// Splits `text` into lowercase alphanumeric words. Everything that is not
/// [A-Za-z0-9] separates words; words shorter than `min_length` are
/// dropped (classic full-text behaviour).
std::vector<std::string> TokenizeWords(std::string_view text,
                                       size_t min_length = 1);

}  // namespace doppio
