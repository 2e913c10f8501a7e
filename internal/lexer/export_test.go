package lexer

// ModalSpec exposes the fuzz lexer to the external oracle test.
var ModalSpec = modalSpec
