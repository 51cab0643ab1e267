package minipy

// Node is any AST node.
type Node interface{ node() }

// ---- Expressions ----

// NumLit is an integer or float literal.
type NumLit struct {
	IsFloat bool
	Int     int64
	Float   float64
}

// StrLit is a string literal.
type StrLit struct{ Val string }

// BoolLit is True/False.
type BoolLit struct{ Val bool }

// NoneLit is None.
type NoneLit struct{}

// NameRef references a variable.
type NameRef struct{ Name string }

// ListLit is [a, b, c].
type ListLit struct{ Elems []Node }

// Index is container[expr].
type Index struct {
	Container Node
	Idx       Node
}

// Call invokes a function.
type Call struct {
	Fn   string
	Args []Node
}

// BinOp is a binary operation.
type BinOp struct {
	Op   string
	L, R Node
}

// UnaryOp is -x or `not x`.
type UnaryOp struct {
	Op string
	X  Node
}

func (*NumLit) node()  {}
func (*StrLit) node()  {}
func (*BoolLit) node() {}
func (*NoneLit) node() {}
func (*NameRef) node() {}
func (*ListLit) node() {}
func (*Index) node()   {}
func (*Call) node()    {}
func (*BinOp) node()   {}
func (*UnaryOp) node() {}

// ---- Statements ----

// Assign is name = expr, name op= expr, or container[i] = expr.
type Assign struct {
	Target Node   // *NameRef or *Index
	AugOp  string // "", "+", "-", "*", "/"
	Value  Node
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct{ X Node }

// If is a chain of conditions with an optional else.
type If struct {
	Conds  []Node
	Blocks [][]Node
	Else   []Node
}

// While loops while the condition holds.
type While struct {
	Cond Node
	Body []Node
}

// For iterates over a range() or list value.
type For struct {
	Var  string
	Iter Node
	Body []Node
}

// FuncDef defines a function.
type FuncDef struct {
	Name   string
	Params []string
	Body   []Node
}

// Return exits a function with an optional value.
type Return struct{ Value Node }

// Break / Continue / Pass are loop and no-op statements.
type Break struct{}
type Continue struct{}
type Pass struct{}

func (*Assign) node()   {}
func (*ExprStmt) node() {}
func (*If) node()       {}
func (*While) node()    {}
func (*For) node()      {}
func (*FuncDef) node()  {}
func (*Return) node()   {}
func (*Break) node()    {}
func (*Continue) node() {}
func (*Pass) node()     {}
