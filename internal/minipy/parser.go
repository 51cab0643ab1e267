package minipy

import "strconv"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse turns source into a list of top-level statements.
func Parse(src string) ([]Node, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Node
	for !p.at(TokEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

// at reports whether the current token matches kind (and literal, if
// non-empty).
func (p *parser) at(kind TokKind, lit string) bool {
	t := p.cur()
	return t.Kind == kind && (lit == "" || t.Lit == lit)
}

// accept consumes the current token if it matches.
func (p *parser) accept(kind TokKind, lit string) bool {
	if p.at(kind, lit) {
		p.pos++
		return true
	}
	return false
}

// expect consumes a required token.
func (p *parser) expect(kind TokKind, lit string) (Token, error) {
	if p.at(kind, lit) {
		return p.next(), nil
	}
	t := p.cur()
	want := lit
	if want == "" {
		want = kind.String()
	}
	return t, errf(t.Line, "expected %s, got %v", want, t)
}

// block parses NEWLINE INDENT stmt+ DEDENT.
func (p *parser) block() ([]Node, error) {
	if _, err := p.expect(TokOp, ":"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIndent, ""); err != nil {
		return nil, err
	}
	var stmts []Node
	for !p.accept(TokDedent, "") {
		if p.at(TokEOF, "") {
			return nil, errf(p.cur().Line, "unexpected EOF in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) statement() (Node, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Lit {
		case "def":
			return p.funcDef()
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "return":
			p.next()
			var val Node
			if !p.at(TokNewline, "") {
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				val = v
			}
			if _, err := p.expect(TokNewline, ""); err != nil {
				return nil, err
			}
			return &Return{Value: val}, nil
		case "break", "continue", "pass":
			p.next()
			if _, err := p.expect(TokNewline, ""); err != nil {
				return nil, err
			}
			switch t.Lit {
			case "break":
				return &Break{}, nil
			case "continue":
				return &Continue{}, nil
			}
			return &Pass{}, nil
		}
	}
	return p.simpleStmt()
}

// simpleStmt is an assignment or expression statement.
func (p *parser) simpleStmt() (Node, error) {
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	for _, aug := range []string{"+=", "-=", "*=", "/="} {
		if p.accept(TokOp, aug) {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := checkAssignable(x, p.cur().Line); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokNewline, ""); err != nil {
				return nil, err
			}
			return &Assign{Target: x, AugOp: aug[:1], Value: v}, nil
		}
	}
	if p.accept(TokOp, "=") {
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := checkAssignable(x, p.cur().Line); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokNewline, ""); err != nil {
			return nil, err
		}
		return &Assign{Target: x, Value: v}, nil
	}
	if _, err := p.expect(TokNewline, ""); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, nil
}

func checkAssignable(x Node, line int) error {
	switch x.(type) {
	case *NameRef, *Index:
		return nil
	}
	return errf(line, "cannot assign to this expression")
}

func (p *parser) funcDef() (Node, error) {
	p.next() // def
	name, err := p.expect(TokName, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(TokOp, ")") {
		pn, err := p.expect(TokName, "")
		if err != nil {
			return nil, err
		}
		params = append(params, pn.Lit)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDef{Name: name.Lit, Params: params, Body: body}, nil
}

func (p *parser) ifStmt() (Node, error) {
	p.next() // if
	out := &If{}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	out.Conds = append(out.Conds, cond)
	out.Blocks = append(out.Blocks, body)
	for p.at(TokKeyword, "elif") {
		p.next()
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		b, err := p.block()
		if err != nil {
			return nil, err
		}
		out.Conds = append(out.Conds, c)
		out.Blocks = append(out.Blocks, b)
	}
	if p.at(TokKeyword, "else") {
		p.next()
		b, err := p.block()
		if err != nil {
			return nil, err
		}
		out.Else = b
	}
	return out, nil
}

func (p *parser) whileStmt() (Node, error) {
	p.next() // while
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Node, error) {
	p.next() // for
	v, err := p.expect(TokName, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "in"); err != nil {
		return nil, err
	}
	iter, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &For{Var: v.Lit, Iter: iter, Body: body}, nil
}

// ---- Expression precedence climbing ----

// expr = orExpr
func (p *parser) expr() (Node, error) { return p.orExpr() }

func (p *parser) orExpr() (Node, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "or") {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Node, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokKeyword, "and") {
		p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Node, error) {
	if p.at(TokKeyword, "not") {
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "not", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Node, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.at(TokOp, op) {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	// Membership: `x in c` and `x not in c`.
	if p.at(TokKeyword, "in") {
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: "in", L: l, R: r}, nil
	}
	if p.at(TokKeyword, "not") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Lit == "in" {
		p.next()
		p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "not", X: &BinOp{Op: "in", L: l, R: r}}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Node, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "+") || p.at(TokOp, "-") {
		op := p.next().Lit
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Node, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "*") || p.at(TokOp, "/") || p.at(TokOp, "//") || p.at(TokOp, "%") {
		op := p.next().Lit
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Node, error) {
	if p.at(TokOp, "-") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "-", X: x}, nil
	}
	return p.power()
}

func (p *parser) power() (Node, error) {
	base, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(TokOp, "**") {
		p.next()
		exp, err := p.unary() // right-associative
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: "**", L: base, R: exp}, nil
	}
	return base, nil
}

// postfix handles indexing: atom ([expr])*
func (p *parser) postfix() (Node, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "[") {
		p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		x = &Index{Container: x, Idx: idx}
	}
	return x, nil
}

func (p *parser) atom() (Node, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, errf(t.Line, "bad integer %q", t.Lit)
		}
		return &NumLit{Int: v}, nil
	case t.Kind == TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, errf(t.Line, "bad float %q", t.Lit)
		}
		return &NumLit{IsFloat: true, Float: v}, nil
	case t.Kind == TokString:
		p.next()
		return &StrLit{Val: t.Lit}, nil
	case t.Kind == TokKeyword && (t.Lit == "True" || t.Lit == "False"):
		p.next()
		return &BoolLit{Val: t.Lit == "True"}, nil
	case t.Kind == TokKeyword && t.Lit == "None":
		p.next()
		return &NoneLit{}, nil
	case t.Kind == TokName:
		p.next()
		if p.accept(TokOp, "(") {
			var args []Node
			for !p.at(TokOp, ")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(TokOp, ",") {
					break
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			return &Call{Fn: t.Lit, Args: args}, nil
		}
		return &NameRef{Name: t.Lit}, nil
	case t.Kind == TokOp && t.Lit == "(":
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.Kind == TokOp && t.Lit == "[":
		p.next()
		var elems []Node
		for !p.at(TokOp, "]") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		return &ListLit{Elems: elems}, nil
	}
	return nil, errf(t.Line, "unexpected token %v", t)
}
