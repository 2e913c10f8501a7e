package lr

// MatchReference exposes the reference comparison to the external
// test package, which can import the built-in languages.
var MatchReference = matchReference
