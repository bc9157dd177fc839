package core

import (
	"fmt"
	"sort"

	"reactdb/internal/rel"
)

// Procedure is the unit of application logic invoked on a reactor: the
// equivalent of a database stored procedure written against the reactor
// programming model. It receives the execution context of the (sub-)
// transaction — declarative access to the reactor's relations plus
// asynchronous calls to other reactors — and positional arguments. Returning
// an error aborts the root transaction (use Abortf for application aborts).
type Procedure func(ctx Context, args Args) (any, error)

// Type is a reactor type: it determines the relation schemas encapsulated in
// the reactor state and the procedures that may be invoked on reactors of the
// type (§2.2.1). Types are immutable once registered with a DatabaseDef.
type Type struct {
	name       string
	schemas    []*rel.Schema
	procedures map[string]procDecl
}

// procDecl is a registered procedure together with the type's own copy of its
// name (see DatabaseDef.Intern).
type procDecl struct {
	name string
	run  Procedure
}

// NewType creates an empty reactor type with the given name.
func NewType(name string) *Type {
	return &Type{name: name, procedures: make(map[string]procDecl)}
}

// Name returns the type name.
func (t *Type) Name() string { return t.name }

// AddRelation declares a relation schema encapsulated by reactors of this
// type. It returns the type for chaining. A duplicate relation name panics at
// declaration time — like MustSchema, relation declarations are static, and
// deferring the error to DatabaseDef validation (or worse, first use) hides
// the offending declaration site.
func (t *Type) AddRelation(schema *rel.Schema) *Type {
	for _, s := range t.schemas {
		if s.Name() == schema.Name() {
			panic(fmt.Sprintf("reactor: type %s declares relation %q twice", t.name, schema.Name()))
		}
	}
	t.schemas = append(t.schemas, schema)
	return t
}

// AddProcedure registers a procedure under the given name. It returns the
// type for chaining.
func (t *Type) AddProcedure(name string, p Procedure) *Type {
	t.procedures[name] = procDecl{name: name, run: p}
	return t
}

// Relations returns the declared relation schemas.
func (t *Type) Relations() []*rel.Schema { return t.schemas }

// Procedure returns the named procedure, or nil.
func (t *Type) Procedure(name string) Procedure { return t.procedures[name].run }

// ProcedureNames returns the names of all registered procedures, sorted.
func (t *Type) ProcedureNames() []string {
	names := make([]string, 0, len(t.procedures))
	for n := range t.procedures {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Validate checks that the type is well formed: it has a name, at least one
// relation, distinct relation names, and at least one procedure.
func (t *Type) Validate() error {
	if t.name == "" {
		return fmt.Errorf("reactor: type needs a name")
	}
	if len(t.schemas) == 0 {
		return fmt.Errorf("reactor: type %s declares no relations", t.name)
	}
	seen := make(map[string]bool)
	for _, s := range t.schemas {
		if seen[s.Name()] {
			return fmt.Errorf("reactor: type %s declares relation %q twice", t.name, s.Name())
		}
		seen[s.Name()] = true
	}
	if len(t.procedures) == 0 {
		return fmt.Errorf("reactor: type %s declares no procedures", t.name)
	}
	return nil
}

// DatabaseDef is the logical declaration of a reactor database: a set of
// reactor types and the named reactors bound to them. The developer cannot
// create or destroy reactors at runtime; they are "purely logical entities
// accessible by their declared names for the lifetime of the application"
// (§2.2.1).
type DatabaseDef struct {
	types    map[string]*Type
	reactors map[string]int // reactor name -> index into order and typeOf
	order    []string       // declaration order of reactor names
	typeOf   []*Type        // the type of order[i]
}

// NewDatabaseDef returns an empty database declaration.
func NewDatabaseDef() *DatabaseDef {
	return &DatabaseDef{types: make(map[string]*Type), reactors: make(map[string]int)}
}

// AddType registers a reactor type. It fails on duplicates or invalid types.
func (d *DatabaseDef) AddType(t *Type) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, dup := d.types[t.Name()]; dup {
		return fmt.Errorf("reactor: type %q already declared", t.Name())
	}
	d.types[t.Name()] = t
	return nil
}

// MustAddType is AddType that panics on error, for static declarations.
func (d *DatabaseDef) MustAddType(t *Type) *DatabaseDef {
	if err := d.AddType(t); err != nil {
		panic(err)
	}
	return d
}

// DeclareReactor binds a reactor name to a declared type.
func (d *DatabaseDef) DeclareReactor(name, typeName string) error {
	if name == "" {
		return fmt.Errorf("reactor: reactor needs a name")
	}
	typ, ok := d.types[typeName]
	if !ok {
		return fmt.Errorf("reactor: reactor %q references undeclared type %q", name, typeName)
	}
	if _, dup := d.reactors[name]; dup {
		return fmt.Errorf("reactor: reactor %q already declared", name)
	}
	d.reactors[name] = len(d.order)
	d.order = append(d.order, name)
	d.typeOf = append(d.typeOf, typ)
	return nil
}

// MustDeclareReactor is DeclareReactor that panics on error.
func (d *DatabaseDef) MustDeclareReactor(name, typeName string) *DatabaseDef {
	if err := d.DeclareReactor(name, typeName); err != nil {
		panic(err)
	}
	return d
}

// MustDeclareReactors declares several reactors of the same type.
func (d *DatabaseDef) MustDeclareReactors(typeName string, names ...string) *DatabaseDef {
	for _, n := range names {
		d.MustDeclareReactor(n, typeName)
	}
	return d
}

// Type returns the named reactor type, or nil.
func (d *DatabaseDef) Type(name string) *Type { return d.types[name] }

// TypeOf returns the type of the named reactor, or nil if the reactor is not
// declared.
func (d *DatabaseDef) TypeOf(reactor string) *Type {
	i, ok := d.reactors[reactor]
	if !ok {
		return nil
	}
	return d.typeOf[i]
}

// Intern turns a reactor and a procedure name held as bytes — what a wire
// decoder has — into strings without allocating: declared names come back as
// the definition's own copies. A name the definition does not know is copied,
// so that the caller's "unknown reactor" error can still spell it.
func (d *DatabaseDef) Intern(reactor, procedure []byte) (string, string) {
	i, ok := d.reactors[string(reactor)]
	if !ok {
		return string(reactor), string(procedure)
	}
	p, ok := d.typeOf[i].procedures[string(procedure)]
	if !ok {
		return d.order[i], string(procedure)
	}
	return d.order[i], p.name
}

// HasReactor reports whether the reactor name is declared.
func (d *DatabaseDef) HasReactor(name string) bool {
	_, ok := d.reactors[name]
	return ok
}

// Reactors returns all declared reactor names in declaration order.
func (d *DatabaseDef) Reactors() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// NumReactors returns the number of declared reactors.
func (d *DatabaseDef) NumReactors() int { return len(d.order) }

// Validate checks the declaration is usable: at least one type and reactor.
func (d *DatabaseDef) Validate() error {
	if len(d.types) == 0 {
		return fmt.Errorf("reactor: database declares no reactor types")
	}
	if len(d.reactors) == 0 {
		return fmt.Errorf("reactor: database declares no reactors")
	}
	return nil
}
