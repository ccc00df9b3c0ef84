#include <gtest/gtest.h>

#include <cctype>

#include "xml/document.h"
#include "xml/parser.h"
#include "xml/path.h"
#include "xml/text.h"
#include "xml/writer.h"

namespace dtdevolve::xml {
namespace {

// --- text utilities ---------------------------------------------------------

TEST(TextTest, NameValidation) {
  EXPECT_TRUE(IsValidName("a"));
  EXPECT_TRUE(IsValidName("abc-def.g"));
  EXPECT_TRUE(IsValidName("_x1"));
  EXPECT_TRUE(IsValidName("ns:tag"));
  EXPECT_FALSE(IsValidName(""));
  EXPECT_FALSE(IsValidName("1a"));
  EXPECT_FALSE(IsValidName("-a"));
  EXPECT_FALSE(IsValidName("a b"));
}

TEST(TextTest, CharacterClassTableMatchesCLocale) {
  // The inline table must answer exactly what the C locale's <cctype>
  // does, for every byte value, signed or not.
  for (int value = 0; value < 256; ++value) {
    const auto byte = static_cast<unsigned char>(value);
    const char c = static_cast<char>(byte);
    const bool start = std::isalpha(byte) || c == '_' || c == ':';
    const bool name = start || std::isdigit(byte) || c == '-' || c == '.';
    EXPECT_EQ(IsNameStartChar(c), start) << "byte " << value;
    EXPECT_EQ(IsNameChar(c), name) << "byte " << value;
    EXPECT_EQ(IsSpaceChar(c), std::isspace(byte) != 0) << "byte " << value;
  }
}

TEST(TextTest, EscapeRoundTrip) {
  const std::string raw = "a<b>&\"c'";
  StatusOr<std::string> back = UnescapeText(EscapeText(raw));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, raw);
}

TEST(TextTest, UnescapePredefinedEntities) {
  StatusOr<std::string> out = UnescapeText("&lt;&gt;&amp;&quot;&apos;");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<>&\"'");
}

TEST(TextTest, UnescapeCharacterReferences) {
  StatusOr<std::string> decimal = UnescapeText("&#65;&#66;");
  ASSERT_TRUE(decimal.ok());
  EXPECT_EQ(*decimal, "AB");
  StatusOr<std::string> hex = UnescapeText("&#x41;");
  ASSERT_TRUE(hex.ok());
  EXPECT_EQ(*hex, "A");
}

TEST(TextTest, UnescapeErrors) {
  EXPECT_FALSE(UnescapeText("&bogus;").ok());
  EXPECT_FALSE(UnescapeText("&amp").ok());
  EXPECT_FALSE(UnescapeText("&#;").ok());
  EXPECT_FALSE(UnescapeText("&#xZZ;").ok());
}

// --- document tree ----------------------------------------------------------

TEST(DocumentTest, BuildAndQueryTree) {
  Element root("a");
  Element& b = root.AddElement("b");
  b.AddText("5");
  root.AddElement("c");
  root.AddElement("b");

  EXPECT_EQ(root.tag(), "a");
  EXPECT_EQ(root.ChildElements().size(), 3u);
  EXPECT_EQ(root.ChildTagSequence(),
            (std::vector<std::string>{"b", "c", "b"}));
  EXPECT_EQ(root.ChildTagSet(), (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(root.SubtreeElementCount(), 4u);
  EXPECT_EQ(root.SubtreeHeight(), 2u);
  EXPECT_FALSE(root.HasTextContent());
  EXPECT_TRUE(b.HasTextContent());
  EXPECT_EQ(b.TextContent(), "5");
}

TEST(DocumentTest, CloneIsDeepAndEqual) {
  Element root("a");
  root.AddAttribute("id", "1");
  root.AddElement("b").AddText("x");
  std::unique_ptr<Element> copy = root.CloneElement();
  EXPECT_TRUE(StructurallyEqual(root, *copy));
  // Mutating the copy must not affect the original.
  copy->AddElement("c");
  EXPECT_FALSE(StructurallyEqual(root, *copy));
  EXPECT_EQ(root.ChildElements().size(), 1u);
}

TEST(DocumentTest, FindAttribute) {
  Element e("x");
  e.AddAttribute("k", "v");
  ASSERT_NE(e.FindAttribute("k"), nullptr);
  EXPECT_EQ(*e.FindAttribute("k"), "v");
  EXPECT_EQ(e.FindAttribute("missing"), nullptr);
}

// --- parser ------------------------------------------------------------------

TEST(ParserTest, ParsesSimpleDocument) {
  StatusOr<Document> doc = ParseDocument("<a><b>5</b><c>7</c></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root().tag(), "a");
  EXPECT_EQ(doc->root().ChildTagSequence(),
            (std::vector<std::string>{"b", "c"}));
  EXPECT_EQ(doc->root().ChildElements()[0]->TextContent(), "5");
}

TEST(ParserTest, ParsesAttributesAndSelfClosing) {
  StatusOr<Document> doc =
      ParseDocument(R"(<a x="1" y="two"><b/><c z='3'/></a>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc->root().FindAttribute("x"), "1");
  EXPECT_EQ(*doc->root().FindAttribute("y"), "two");
  EXPECT_EQ(doc->root().ChildElements().size(), 2u);
  EXPECT_EQ(*doc->root().ChildElements()[1]->FindAttribute("z"), "3");
}

TEST(ParserTest, SkipsPrologCommentsAndPis) {
  StatusOr<Document> doc = ParseDocument(
      "<?xml version=\"1.0\"?><!-- c --><a><?pi data?><!-- c2 --><b/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root().ChildElements().size(), 1u);
}

TEST(ParserTest, CapturesDoctypeInternalSubset) {
  StatusOr<Document> doc = ParseDocument(
      "<!DOCTYPE a [<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>]><a><b>x</b></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->doctype_name(), "a");
  EXPECT_NE(doc->internal_subset().find("<!ELEMENT a (b)>"),
            std::string::npos);
}

TEST(ParserTest, DoctypeWithExternalIdOnly) {
  StatusOr<Document> doc =
      ParseDocument(R"(<!DOCTYPE a SYSTEM "a.dtd"><a/>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->doctype_name(), "a");
  EXPECT_TRUE(doc->internal_subset().empty());
}

TEST(ParserTest, CdataBecomesText) {
  StatusOr<Document> doc = ParseDocument("<a><![CDATA[<raw>&]]></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root().TextContent(), "<raw>&");
}

TEST(ParserTest, DecodesEntitiesInTextAndAttributes) {
  StatusOr<Document> doc =
      ParseDocument(R"(<a k="&lt;v&gt;">x &amp; y</a>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc->root().FindAttribute("k"), "<v>");
  EXPECT_EQ(doc->root().TextContent(), "x & y");
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDocument("").ok());
  EXPECT_FALSE(ParseDocument("<a>").ok());
  EXPECT_FALSE(ParseDocument("<a></b>").ok());
  EXPECT_FALSE(ParseDocument("<a></a><b></b>").ok());
  EXPECT_FALSE(ParseDocument("text only").ok());
  EXPECT_FALSE(ParseDocument("<a x=1></a>").ok());
  EXPECT_FALSE(ParseDocument("<a><b></a></b>").ok());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  StatusOr<Document> doc = ParseDocument("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().ToString();
}

TEST(ParserTest, WhitespaceOnlyTextIsDropped) {
  StatusOr<Document> doc = ParseDocument("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().children().size(), 2u);
}

// --- writer ------------------------------------------------------------------

TEST(WriterTest, RoundTripThroughParser) {
  const char* input =
      R"(<a id="1"><b>5</b><c><d>x &amp; y</d></c><e/></a>)";
  StatusOr<Document> doc = ParseDocument(input);
  ASSERT_TRUE(doc.ok());
  WriteOptions compact;
  compact.indent = false;
  std::string out = WriteDocument(*doc, compact);
  StatusOr<Document> again = ParseDocument(out);
  ASSERT_TRUE(again.ok()) << out;
  EXPECT_TRUE(StructurallyEqual(doc->root(), again->root()));
}

TEST(WriterTest, EmitsDoctype) {
  Document doc;
  doc.set_doctype_name("a");
  doc.set_internal_subset("<!ELEMENT a EMPTY>");
  doc.set_root(std::make_unique<Element>("a"));
  WriteOptions compact;
  compact.indent = false;
  EXPECT_EQ(WriteDocument(doc, compact),
            "<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>");
}

TEST(WriterTest, IndentedOutputIsReadable) {
  StatusOr<Document> doc = ParseDocument("<a><b><c>x</c></b></a>");
  ASSERT_TRUE(doc.ok());
  std::string out = WriteElement(doc->root());
  EXPECT_NE(out.find("\n  <b>"), std::string::npos);
  EXPECT_NE(out.find("\n    <c>x</c>"), std::string::npos);
}

// --- path queries ------------------------------------------------------------

TEST(PathTest, SelectsByPath) {
  StatusOr<Document> doc = ParseDocument(
      "<lib><book><title>t1</title></book><book><title>t2</title></book>"
      "<journal><title>t3</title></journal></lib>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(SelectPath(doc->root(), "lib/book/title").size(), 2u);
  EXPECT_EQ(SelectPath(doc->root(), "lib/*/title").size(), 3u);
  EXPECT_EQ(SelectPath(doc->root(), "nope").size(), 0u);
  const Element* first = SelectFirst(doc->root(), "lib/journal/title");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->TextContent(), "t3");
}

TEST(PathTest, AllElementsAndByTag) {
  StatusOr<Document> doc =
      ParseDocument("<a><b/><c><b/></c></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(AllElements(doc->root()).size(), 4u);
  EXPECT_EQ(ElementsByTag(doc->root(), "b").size(), 2u);
}

}  // namespace
}  // namespace dtdevolve::xml
