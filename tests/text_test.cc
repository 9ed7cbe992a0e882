// Unit tests for the text pipeline: the §7.1 token walk, Normalize, the
// vocabulary and TF-IDF. TextPathProperty pins the walk against the earlier
// two-pass normalizer + whitespace split + sort-and-unique vocabulary, kept
// below as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace crowder {
namespace text {
namespace {

std::vector<std::string> Tokens(std::string_view text) {
  std::vector<std::string> out;
  ForEachToken(text, [&out](const std::string& token) { out.push_back(token); });
  return out;
}

TEST(NormalizeTest, PaperPreprocessing) {
  // §7.1: replace non-alphanumerics with spaces, lowercase.
  EXPECT_EQ(Normalize("Apple 8GB Black 2nd Generation iPod Touch - MB528LLA"),
            "apple 8gb black 2nd generation ipod touch mb528lla");
  EXPECT_EQ(Normalize("55 E. 54th St."), "55 e 54th st");
}

TEST(NormalizeTest, CollapsesWhitespace) {
  EXPECT_EQ(Normalize("  a   b  "), "a b");
  EXPECT_EQ(Normalize("a--b"), "a b");
}

TEST(NormalizeTest, EmptyAndPunctuationOnly) {
  EXPECT_EQ(Normalize(""), "");
  EXPECT_EQ(Normalize("!!!"), "");
}

TEST(ForEachTokenTest, PreservesDuplicatesAndOrder) {
  EXPECT_EQ(Tokens("iPad two iPad"), (std::vector<std::string>{"ipad", "two", "ipad"}));
}

TEST(ForEachTokenTest, EmptyInput) {
  EXPECT_TRUE(Tokens("").empty());
  EXPECT_TRUE(Tokens("...").empty());
}

TEST(ForEachTokenTest, EveryByteOutsideAsciiAlnumSeparates) {
  // UTF-8 letters, NUL and control bytes split tokens; tokens longer than a
  // short-string buffer come out whole.
  const std::string text = std::string("caf\xC3\xA9") + '\0' + "X\x7F" + "y\tZ" +
                           std::string(40, 'Q') + "\xFF" + "9";
  EXPECT_EQ(Tokens(text), (std::vector<std::string>{"caf", "x", "y", "z" + std::string(40, 'q'),
                                                    "9"}));
}

TEST(VocabularyTest, InternAssignsIdsInFirstAppearanceOrder) {
  Vocabulary v;
  EXPECT_EQ(v.InternDocument("apple Banana apple"), (std::vector<TokenId>{0, 1, 0}));
  EXPECT_EQ(v.InternDocument("banana cherry"), (std::vector<TokenId>{1, 2}));
  EXPECT_EQ(v.size(), 3u);
}

TEST(VocabularyTest, DocumentFrequencyCountsOncePerDocument) {
  Vocabulary v;
  v.InternDocument("a a b");  // a = 0, b = 1
  v.InternDocument("a c");    // c = 2
  v.InternDocument("");
  EXPECT_EQ(v.num_documents(), 3u);
  EXPECT_EQ(v.DocumentFrequency(0), 2u);  // once per doc despite repeat
  EXPECT_EQ(v.DocumentFrequency(1), 1u);
  EXPECT_EQ(v.DocumentFrequency(2), 1u);
}

TEST(TfIdfTest, CosineOfIdenticalDocsIsOne) {
  Vocabulary v;
  const auto d1 = v.InternDocument("a b c");
  const auto d2 = v.InternDocument("a b c");
  TfIdfVectorizer vec(&v);
  EXPECT_NEAR(TfIdfVectorizer::Cosine(vec.Vectorize(d1), vec.Vectorize(d2)), 1.0, 1e-9);
}

TEST(TfIdfTest, CosineOfDisjointDocsIsZero) {
  Vocabulary v;
  const auto d1 = v.InternDocument("a b");
  const auto d2 = v.InternDocument("c d");
  TfIdfVectorizer vec(&v);
  EXPECT_EQ(TfIdfVectorizer::Cosine(vec.Vectorize(d1), vec.Vectorize(d2)), 0.0);
}

TEST(TfIdfTest, RareTokensWeighMore) {
  Vocabulary v;
  // "common" (id 0) appears in every doc; "rare" (id 1) in one.
  const auto doc = v.InternDocument("common rare");
  v.InternDocument("common x");
  v.InternDocument("common y");
  TfIdfVectorizer vec(&v);
  const SparseVector sv = vec.Vectorize(doc);
  ASSERT_EQ(sv.entries.size(), 2u);
  double w_common = 0.0;
  double w_rare = 0.0;
  for (const auto& [id, w] : sv.entries) {
    if (id == doc[0]) w_common = w;
    if (id == doc[1]) w_rare = w;
  }
  EXPECT_GT(w_rare, w_common);
}

TEST(TfIdfTest, EmptyDocument) {
  Vocabulary v;
  const auto doc = v.InternDocument("a");
  TfIdfVectorizer vec(&v);
  const SparseVector empty = vec.Vectorize({});
  EXPECT_TRUE(empty.empty());
  const SparseVector other = vec.Vectorize(doc);
  EXPECT_EQ(TfIdfVectorizer::Cosine(empty, other), 0.0);
}

TEST(TfIdfTest, TermFrequencyCounted) {
  Vocabulary v;
  const auto doc = v.InternDocument("a a b");
  TfIdfVectorizer vec(&v, /*use_idf=*/false);
  const SparseVector sv = vec.Vectorize(doc);
  ASSERT_EQ(sv.entries.size(), 2u);
  EXPECT_EQ(sv.entries[0].second, 2.0);  // token "a" (id 0) has tf 2
  EXPECT_EQ(sv.entries[1].second, 1.0);
}

// ---------------------------------------------------------------------------
// The reference: the earlier text path, kept verbatim in behaviour. A
// two-pass normalizer (C-locale isalnum/tolower, then collapse isspace runs
// and trim), SplitWhitespace, and a vocabulary that counts document
// frequency by sorting and deduplicating a copy of each document's ids.
// ---------------------------------------------------------------------------

std::string ReferenceNormalize(std::string_view input) {
  std::string stage;
  for (char raw : input) {
    const unsigned char c = static_cast<unsigned char>(raw);
    stage.push_back(std::isalnum(c) ? static_cast<char>(std::tolower(c)) : ' ');
  }
  std::string out;
  bool pending_space = false;
  for (char c : stage) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

struct ReferenceVocabulary {
  std::unordered_map<std::string, TokenId> ids;
  std::vector<uint32_t> doc_freq;
  uint32_t num_documents = 0;

  std::vector<TokenId> InternDocument(const std::vector<std::string>& tokens) {
    std::vector<TokenId> out;
    for (const auto& t : tokens) {
      const auto [it, inserted] = ids.emplace(t, static_cast<TokenId>(doc_freq.size()));
      if (inserted) doc_freq.push_back(0);
      out.push_back(it->second);
    }
    std::vector<TokenId> distinct = out;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
    for (TokenId id : distinct) ++doc_freq[id];
    ++num_documents;
    return out;
  }
};

// One random document over all 256 byte values, in one of five shapes:
// empty; separators only; uniform random bytes; words from a small mixed-case
// pool (so tokens repeat within and across documents) between random
// separators; or one long alphanumeric run with separators around it.
std::string RandomDocument(Rng* rng) {
  static const char* const kWords[] = {"a", "B", "ab", "Ab", "AB", "a1", "7", "07", "Zz9", "x"};
  auto separator = [rng]() {
    unsigned char c = 0;
    do {
      c = static_cast<unsigned char>(rng->Uniform(256));
    } while (std::isalnum(c));
    return static_cast<char>(c);
  };
  auto alnum = [rng]() {
    static const char kAlnum[] =
        "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    return kAlnum[rng->Uniform(sizeof(kAlnum) - 1)];
  };
  std::string doc;
  switch (rng->Uniform(5)) {
    case 0:
      break;
    case 1:
      for (uint64_t i = rng->Uniform(12); i > 0; --i) doc.push_back(separator());
      break;
    case 2:
      for (uint64_t i = rng->Uniform(80); i > 0; --i) {
        doc.push_back(static_cast<char>(rng->Uniform(256)));
      }
      break;
    case 3:
      for (uint64_t w = rng->Uniform(10); w > 0; --w) {
        for (uint64_t s = rng->Uniform(3); s > 0; --s) doc.push_back(separator());
        doc += kWords[rng->Uniform(std::size(kWords))];
        if (rng->Bernoulli(0.2)) doc.push_back(static_cast<char>(128 + rng->Uniform(128)));
      }
      break;
    default:
      if (rng->Bernoulli(0.5)) doc.push_back(separator());
      for (uint64_t i = 16 + rng->Uniform(300); i > 0; --i) doc.push_back(alnum());
      if (rng->Bernoulli(0.5)) doc.push_back(separator());
      break;
  }
  return doc;
}

TEST(TextPathProperty, MatchesTheTwoPassReference) {
  constexpr uint64_t kVocabularies = 2500;
  uint64_t tokens_seen = 0;
  for (uint64_t seed = 0; seed < kVocabularies; ++seed) {
    Rng rng(seed);
    Vocabulary vocab;
    ReferenceVocabulary reference;
    const uint64_t num_docs = 1 + rng.Uniform(8);
    for (uint64_t d = 0; d < num_docs; ++d) {
      const std::string doc = RandomDocument(&rng);
      const std::string normalized = ReferenceNormalize(doc);
      ASSERT_EQ(Normalize(doc), normalized) << "seed " << seed << " doc " << d;
      const std::vector<TokenId> ids = vocab.InternDocument(doc);
      ASSERT_EQ(ids, reference.InternDocument(SplitWhitespace(normalized)))
          << "seed " << seed << " doc " << d;
      tokens_seen += ids.size();
    }
    ASSERT_EQ(vocab.num_documents(), reference.num_documents) << "seed " << seed;
    ASSERT_EQ(vocab.size(), reference.doc_freq.size()) << "seed " << seed;
    for (TokenId id = 0; id < vocab.size(); ++id) {
      ASSERT_EQ(vocab.DocumentFrequency(id), reference.doc_freq[id])
          << "seed " << seed << " token " << id;
    }
  }
  EXPECT_GT(tokens_seen, 10 * kVocabularies);  // the sweep is not vacuous
}

}  // namespace
}  // namespace text
}  // namespace crowder
