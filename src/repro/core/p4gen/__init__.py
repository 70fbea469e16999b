"""P4 code generation backend for compiled Contra policies."""
