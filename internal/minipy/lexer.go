// Package minipy implements a small Python-subset interpreter in the
// spirit of MicroPython, used as the payload of the paper's
// lightweight compute service (§7.4): indentation-structured source,
// integers and floats, lists, functions with recursion, while/for
// loops, and a fuel limit so untrusted programs terminate.
package minipy

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIndent
	TokDedent
	TokInt
	TokFloat
	TokString
	TokName
	TokKeyword
	TokOp
)

var tokNames = [...]string{"EOF", "NEWLINE", "INDENT", "DEDENT", "INT", "FLOAT", "STRING", "NAME", "KEYWORD", "OP"}

func (k TokKind) String() string {
	if int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

// Token is one lexical unit.
type Token struct {
	Kind TokKind
	Lit  string
	Line int
}

func (t Token) String() string { return fmt.Sprintf("%v(%q)@%d", t.Kind, t.Lit, t.Line) }

var keywords = map[string]bool{
	"def": true, "return": true, "if": true, "elif": true, "else": true,
	"while": true, "for": true, "in": true, "pass": true, "break": true,
	"continue": true, "and": true, "or": true, "not": true,
	"True": true, "False": true, "None": true,
}

// operators, longest first so multi-char ops win.
var operators = []string{
	"**", "//", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=",
	"+", "-", "*", "/", "%", "<", ">", "=", "(", ")", "[", "]", ",", ":",
}

// SyntaxError reports a lexing or parsing problem with its line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minipy: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...interface{}) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes src, emitting INDENT/DEDENT tokens from indentation.
func Lex(src string) ([]Token, error) {
	var toks []Token
	indents := []int{0}
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := ln + 1
		// Strip comments (outside strings).
		code := stripComment(raw)
		trimmed := strings.TrimRight(code, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue // blank lines carry no indentation meaning
		}
		indent := 0
		for _, r := range trimmed {
			if r == ' ' {
				indent++
			} else if r == '\t' {
				indent += 8 - indent%8
			} else {
				break
			}
		}
		if indent > indents[len(indents)-1] {
			indents = append(indents, indent)
			toks = append(toks, Token{Kind: TokIndent, Line: line})
		}
		for indent < indents[len(indents)-1] {
			indents = indents[:len(indents)-1]
			toks = append(toks, Token{Kind: TokDedent, Line: line})
		}
		if indent != indents[len(indents)-1] {
			return nil, errf(line, "inconsistent indentation")
		}
		lineToks, err := lexLine(strings.TrimSpace(trimmed), line)
		if err != nil {
			return nil, err
		}
		toks = append(toks, lineToks...)
		toks = append(toks, Token{Kind: TokNewline, Line: line})
	}
	for len(indents) > 1 {
		indents = indents[:len(indents)-1]
		toks = append(toks, Token{Kind: TokDedent, Line: len(lines)})
	}
	toks = append(toks, Token{Kind: TokEOF, Line: len(lines)})
	return toks, nil
}

// stripComment removes a trailing # comment, respecting string quotes.
func stripComment(s string) string {
	inStr := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr != 0:
			if c == inStr {
				inStr = 0
			}
		case c == '\'' || c == '"':
			inStr = c
		case c == '#':
			return s[:i]
		}
	}
	return s
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isNameCont(c byte) bool { return isNameStart(c) || isDigit(c) }

// lexLine tokenizes the code portion of one line.
func lexLine(s string, line int) ([]Token, error) {
	var toks []Token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case isDigit(c) || (c == '.' && i+1 < len(s) && isDigit(s[i+1])):
			j := i
			isFloat := false
			for j < len(s) && (isDigit(s[j]) || s[j] == '.') {
				if s[j] == '.' {
					if isFloat {
						return nil, errf(line, "malformed number %q", s[i:j+1])
					}
					isFloat = true
				}
				j++
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Lit: s[i:j], Line: line})
			i = j
		case c == '\'' || c == '"':
			j := i + 1
			for j < len(s) && s[j] != c {
				j++
			}
			if j >= len(s) {
				return nil, errf(line, "unterminated string")
			}
			toks = append(toks, Token{Kind: TokString, Lit: s[i+1 : j], Line: line})
			i = j + 1
		case isNameStart(c):
			j := i
			for j < len(s) && isNameCont(s[j]) {
				j++
			}
			word := s[i:j]
			kind := TokName
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Lit: word, Line: line})
			i = j
		default:
			matched := false
			for _, op := range operators {
				if strings.HasPrefix(s[i:], op) {
					toks = append(toks, Token{Kind: TokOp, Lit: op, Line: line})
					i += len(op)
					matched = true
					break
				}
			}
			if !matched {
				return nil, errf(line, "unexpected character %q", c)
			}
		}
	}
	return toks, nil
}
