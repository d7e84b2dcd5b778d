package parser

// The parser's tests are an external package; these are their names
// for the standalone parsers.
var (
	ParseExpr = parseExpr
	ParseType = parseType
)
