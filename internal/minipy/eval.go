package minipy

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a runtime value: nil (None), int64, float64, bool, string,
// *List, or *Function.
type Value interface{}

// List is a mutable list value.
type List struct{ Items []Value }

// Function is a user-defined function.
type Function struct {
	Name   string
	Params []string
	Body   []Node
}

// ErrFuel is returned when a program exceeds its step budget.
var ErrFuel = errors.New("minipy: step budget exhausted")

// RuntimeError is a Python-level error (TypeError, NameError, ...).
type RuntimeError struct{ Msg string }

func (e *RuntimeError) Error() string { return "minipy: " + e.Msg }

func rte(format string, args ...interface{}) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// control-flow signals.
type returnSignal struct{ val Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// Interp executes a parsed program.
type Interp struct {
	globals map[string]Value
	out     strings.Builder
	fuel    int
	steps   int
}

// Result summarizes a program run.
type Result struct {
	Output string
	Steps  int
	// Globals exposes final top-level bindings (for tests and the
	// compute service's result extraction).
	Globals map[string]Value
}

// Run parses and executes src with the given step budget (0 means the
// default of 10 million steps).
func Run(src string, fuel int) (*Result, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if fuel <= 0 {
		fuel = 10_000_000
	}
	in := &Interp{globals: make(map[string]Value), fuel: fuel}
	if err := in.execBlock(prog, in.globals); err != nil {
		switch err.(type) {
		case returnSignal, breakSignal, continueSignal:
			return nil, rte("%s", err.Error())
		}
		return nil, err
	}
	return &Result{Output: in.out.String(), Steps: in.steps, Globals: in.globals}, nil
}

func (in *Interp) tick() error {
	in.steps++
	if in.steps > in.fuel {
		return ErrFuel
	}
	return nil
}

func (in *Interp) execBlock(stmts []Node, env map[string]Value) error {
	for _, s := range stmts {
		if err := in.exec(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(s Node, env map[string]Value) error {
	if err := in.tick(); err != nil {
		return err
	}
	switch st := s.(type) {
	case *Pass:
		return nil
	case *Break:
		return breakSignal{}
	case *Continue:
		return continueSignal{}
	case *Return:
		var v Value
		if st.Value != nil {
			var err error
			v, err = in.eval(st.Value, env)
			if err != nil {
				return err
			}
		}
		return returnSignal{val: v}
	case *ExprStmt:
		_, err := in.eval(st.X, env)
		return err
	case *FuncDef:
		env[st.Name] = &Function{Name: st.Name, Params: st.Params, Body: st.Body}
		return nil
	case *Assign:
		v, err := in.eval(st.Value, env)
		if err != nil {
			return err
		}
		if st.AugOp != "" {
			old, err := in.eval(st.Target, env)
			if err != nil {
				return err
			}
			v, err = binop(st.AugOp, old, v)
			if err != nil {
				return err
			}
		}
		return in.assign(st.Target, v, env)
	case *If:
		for i, cond := range st.Conds {
			cv, err := in.eval(cond, env)
			if err != nil {
				return err
			}
			if truthy(cv) {
				return in.execBlock(st.Blocks[i], env)
			}
		}
		return in.execBlock(st.Else, env)
	case *While:
		for {
			cv, err := in.eval(st.Cond, env)
			if err != nil {
				return err
			}
			if !truthy(cv) {
				return nil
			}
			err = in.execBlock(st.Body, env)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	case *For:
		iter, err := in.eval(st.Iter, env)
		if err != nil {
			return err
		}
		items, err := iterate(iter)
		if err != nil {
			return err
		}
		for _, item := range items {
			env[st.Var] = item
			err := in.execBlock(st.Body, env)
			switch err.(type) {
			case nil, continueSignal:
			case breakSignal:
				return nil
			default:
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
		return nil
	}
	return rte("unknown statement %T", s)
}

func (in *Interp) assign(target Node, v Value, env map[string]Value) error {
	switch t := target.(type) {
	case *NameRef:
		env[t.Name] = v
		return nil
	case *Index:
		cont, err := in.eval(t.Container, env)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, env)
		if err != nil {
			return err
		}
		lst, ok := cont.(*List)
		if !ok {
			return rte("cannot index-assign into %s", typeName(cont))
		}
		i, ok := idx.(int64)
		if !ok {
			return rte("list index must be int, not %s", typeName(idx))
		}
		if i < 0 {
			i += int64(len(lst.Items))
		}
		if i < 0 || i >= int64(len(lst.Items)) {
			return rte("list index %d out of range", i)
		}
		lst.Items[i] = v
		return nil
	}
	return rte("bad assignment target %T", target)
}

func (in *Interp) eval(x Node, env map[string]Value) (Value, error) {
	if err := in.tick(); err != nil {
		return nil, err
	}
	switch e := x.(type) {
	case *NumLit:
		if e.IsFloat {
			return e.Float, nil
		}
		return e.Int, nil
	case *StrLit:
		return e.Val, nil
	case *BoolLit:
		return e.Val, nil
	case *NoneLit:
		return nil, nil
	case *NameRef:
		if v, ok := env[e.Name]; ok {
			return v, nil
		}
		if v, ok := in.globals[e.Name]; ok {
			return v, nil
		}
		return nil, rte("name %q is not defined", e.Name)
	case *ListLit:
		l := &List{}
		for _, el := range e.Elems {
			v, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			l.Items = append(l.Items, v)
		}
		return l, nil
	case *Index:
		cont, err := in.eval(e.Container, env)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.Idx, env)
		if err != nil {
			return nil, err
		}
		return index(cont, idx)
	case *UnaryOp:
		v, err := in.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, rte("bad operand for unary -: %s", typeName(v))
		case "not":
			return !truthy(v), nil
		}
		return nil, rte("unknown unary op %q", e.Op)
	case *BinOp:
		// Short-circuit logic.
		if e.Op == "and" || e.Op == "or" {
			l, err := in.eval(e.L, env)
			if err != nil {
				return nil, err
			}
			if e.Op == "and" && !truthy(l) {
				return l, nil
			}
			if e.Op == "or" && truthy(l) {
				return l, nil
			}
			return in.eval(e.R, env)
		}
		l, err := in.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(e.R, env)
		if err != nil {
			return nil, err
		}
		return binop(e.Op, l, r)
	case *Call:
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.call(e.Fn, args, env)
	}
	return nil, rte("unknown expression %T", x)
}

func (in *Interp) call(name string, args []Value, env map[string]Value) (Value, error) {
	// User function?
	var fnv Value
	if v, ok := env[name]; ok {
		fnv = v
	} else if v, ok := in.globals[name]; ok {
		fnv = v
	}
	if fn, ok := fnv.(*Function); ok {
		if len(args) != len(fn.Params) {
			return nil, rte("%s() takes %d arguments, got %d", fn.Name, len(fn.Params), len(args))
		}
		local := make(map[string]Value, len(fn.Params))
		for i, p := range fn.Params {
			local[p] = args[i]
		}
		err := in.execBlock(fn.Body, local)
		if rs, ok := err.(returnSignal); ok {
			return rs.val, nil
		}
		if err != nil {
			return nil, err
		}
		return nil, nil
	}
	return in.builtin(name, args)
}

func (in *Interp) builtin(name string, args []Value) (Value, error) {
	switch name {
	case "print":
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = Repr(a)
		}
		in.out.WriteString(strings.Join(parts, " "))
		in.out.WriteByte('\n')
		return nil, nil
	case "range":
		var start, stop, step int64 = 0, 0, 1
		switch len(args) {
		case 1:
			s, ok := args[0].(int64)
			if !ok {
				return nil, rte("range() needs int")
			}
			stop = s
		case 2, 3:
			a, ok1 := args[0].(int64)
			b, ok2 := args[1].(int64)
			if !ok1 || !ok2 {
				return nil, rte("range() needs ints")
			}
			start, stop = a, b
			if len(args) == 3 {
				c, ok := args[2].(int64)
				if !ok || c == 0 {
					return nil, rte("range() step must be a nonzero int")
				}
				step = c
			}
		default:
			return nil, rte("range() takes 1-3 arguments")
		}
		l := &List{}
		if step > 0 {
			for i := start; i < stop; i += step {
				l.Items = append(l.Items, i)
			}
		} else {
			for i := start; i > stop; i += step {
				l.Items = append(l.Items, i)
			}
		}
		return l, nil
	case "len":
		if len(args) != 1 {
			return nil, rte("len() takes 1 argument")
		}
		switch v := args[0].(type) {
		case *List:
			return int64(len(v.Items)), nil
		case string:
			return int64(len(v)), nil
		}
		return nil, rte("len() of %s", typeName(args[0]))
	}
	return nil, rte("name %q is not defined", name)
}

// ---- helpers ----

func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Items) > 0
	}
	return true
}

func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "NoneType"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "str"
	case *List:
		return "list"
	case *Function:
		return "function"
	}
	return fmt.Sprintf("%T", v)
}

// Repr formats a value the way print() does.
func Repr(v Value) string {
	switch x := v.(type) {
	case nil:
		return "None"
	case bool:
		if x {
			return "True"
		}
		return "False"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case string:
		return x
	case *List:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			if s, ok := it.(string); ok {
				parts[i] = "'" + s + "'"
			} else {
				parts[i] = Repr(it)
			}
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Function:
		return "<function " + x.Name + ">"
	}
	return fmt.Sprint(v)
}

func iterate(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *List:
		return x.Items, nil
	case string:
		out := make([]Value, 0, len(x))
		for _, r := range x {
			out = append(out, string(r))
		}
		return out, nil
	}
	return nil, rte("%s object is not iterable", typeName(v))
}

func index(cont, idx Value) (Value, error) {
	i, ok := idx.(int64)
	if !ok {
		return nil, rte("indices must be int, not %s", typeName(idx))
	}
	switch c := cont.(type) {
	case *List:
		if i < 0 {
			i += int64(len(c.Items))
		}
		if i < 0 || i >= int64(len(c.Items)) {
			return nil, rte("list index %d out of range", i)
		}
		return c.Items[i], nil
	case string:
		if i < 0 {
			i += int64(len(c))
		}
		if i < 0 || i >= int64(len(c)) {
			return nil, rte("string index %d out of range", i)
		}
		return string(c[i]), nil
	}
	return nil, rte("%s object is not subscriptable", typeName(cont))
}

func compare(a, b Value) (int, error) {
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		}
		return 0, nil
	}
	as, aok2 := a.(string)
	bs, bok2 := b.(string)
	if aok2 && bok2 {
		return strings.Compare(as, bs), nil
	}
	return 0, rte("cannot compare %s and %s", typeName(a), typeName(b))
}

func toFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func binop(op string, l, r Value) (Value, error) {
	switch op {
	case "in":
		switch c := r.(type) {
		case *List:
			for _, it := range c.Items {
				eq, err := equals(l, it)
				if err == nil && eq {
					return true, nil
				}
			}
			return false, nil
		case string:
			ls, ok := l.(string)
			if !ok {
				return nil, rte("'in <string>' requires string, not %s", typeName(l))
			}
			return strings.Contains(c, ls), nil
		}
		return nil, rte("%s is not a container", typeName(r))
	case "==", "!=":
		eq, err := equals(l, r)
		if err != nil {
			return nil, err
		}
		if op == "!=" {
			return !eq, nil
		}
		return eq, nil
	case "<", "<=", ">", ">=":
		c, err := compare(l, r)
		if err != nil {
			return nil, err
		}
		switch op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+":
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
			return nil, rte("cannot concatenate str and %s", typeName(r))
		}
		if ll, ok := l.(*List); ok {
			if rl, ok := r.(*List); ok {
				out := &List{Items: append(append([]Value{}, ll.Items...), rl.Items...)}
				return out, nil
			}
			return nil, rte("cannot concatenate list and %s", typeName(r))
		}
	case "*":
		if ls, ok := l.(string); ok {
			if ri, ok := r.(int64); ok {
				return strings.Repeat(ls, int(ri)), nil
			}
		}
	}
	// Numeric paths.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, rte("division by zero")
			}
			return float64(li) / float64(ri), nil // true division
		case "//":
			if ri == 0 {
				return nil, rte("division by zero")
			}
			return floorDivInt(li, ri), nil
		case "%":
			if ri == 0 {
				return nil, rte("modulo by zero")
			}
			m := li % ri
			if m != 0 && (m < 0) != (ri < 0) {
				m += ri
			}
			return m, nil
		case "**":
			if ri >= 0 {
				return intPow(li, ri), nil
			}
			return math.Pow(float64(li), float64(ri)), nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case "+":
			return lf + rf, nil
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			if rf == 0 {
				return nil, rte("division by zero")
			}
			return lf / rf, nil
		case "//":
			if rf == 0 {
				return nil, rte("division by zero")
			}
			return math.Floor(lf / rf), nil
		case "%":
			if rf == 0 {
				return nil, rte("modulo by zero")
			}
			m := math.Mod(lf, rf)
			if m != 0 && (m < 0) != (rf < 0) {
				m += rf
			}
			return m, nil
		case "**":
			return math.Pow(lf, rf), nil
		}
	}
	return nil, rte("unsupported operand types for %s: %s and %s", op, typeName(l), typeName(r))
}

func equals(l, r Value) (bool, error) {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		return lf == rf, nil
	}
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		return ok2 && ls == rs, nil
	}
	if l == nil || r == nil {
		return l == nil && r == nil, nil
	}
	if ll, ok := l.(*List); ok {
		rl, ok2 := r.(*List)
		if !ok2 || len(ll.Items) != len(rl.Items) {
			return false, nil
		}
		for i := range ll.Items {
			eq, err := equals(ll.Items[i], rl.Items[i])
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
	return false, nil
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func intPow(base, exp int64) int64 {
	var out int64 = 1
	for exp > 0 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
		exp >>= 1
	}
	return out
}

// ApproxEProgram is the §7.4 compute-service payload: "All compute
// services calculated an approximation of e".
const ApproxEProgram = `
def approx_e(n):
    e = 1.0
    term = 1.0
    for k in range(1, n + 1):
        term = term / k
        e = e + term
    return e

result = approx_e(20)
print(result)
`
