// Package config parses the router daemon's configuration file: a flat,
// section-based text format (in the spirit of classic router configs)
// declaring the local speaker, its neighbours, per-neighbour policies,
// and optional features like flap damping and MRAI.
//
// Example:
//
//	router {
//	    as 65000
//	    id 10.0.0.1
//	    listen 0.0.0.0:179
//	    fib patricia
//	    shards 4
//	    mrai 30s
//	    damping
//	    update-groups
//	}
//
//	neighbor 65001 {
//	    import deny-bogons
//	    export prepend-once
//	    max-prefixes 500000
//	}
//
//	prefix-list bogons {
//	    permit 10.0.0.0/8 ge 8 le 32
//	    permit 192.168.0.0/16 ge 16 le 32
//	}
//
//	route-map deny-bogons {
//	    term drop { match prefix-list bogons; action deny }
//	    default permit
//	}
//
//	route-map prepend-once {
//	    term pad { set prepend 65000 1; action permit }
//	    default permit
//	}
//
// Match directives: prefix-list, as-contains, neighbor-as, max-path-len,
// community, and as-path "pattern" (quoted; see policy.ASPathPattern).
// Set directives: local-pref, med, prepend, community.
package config

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"bgpbench/internal/core"
	"bgpbench/internal/damping"
	"bgpbench/internal/netaddr"
	"bgpbench/internal/policy"
	"bgpbench/internal/wire"
)

// Parse reads a configuration document and builds the router Config.
func Parse(text string) (core.Config, error) {
	p := &parser{
		prefixLists: map[string]*policy.PrefixList{},
		routeMaps:   map[string]*policy.RouteMap{},
	}
	if err := p.run(text); err != nil {
		return core.Config{}, err
	}
	return p.finish()
}

type neighborDecl struct {
	as          uint32
	importName  string
	exportName  string
	dialTarget  string
	maxPrefixes int
	line        int
}

type parser struct {
	cfg         core.Config
	neighbors   []neighborDecl
	prefixLists map[string]*policy.PrefixList
	routeMaps   map[string]*policy.RouteMap
	sawRouter   bool
}

// tokenize splits the document into tokens, treating braces and
// semicolons as separators and '#' as a to-end-of-line comment.
func tokenize(text string) []token {
	var out []token
	line := 1
	i := 0
	for i < len(text) {
		c := text[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(text) && text[i] != '\n' {
				i++
			}
		case c == '{' || c == '}' || c == ';':
			out = append(out, token{text: string(c), line: line})
			i++
		case c == '"':
			j := i + 1
			for j < len(text) && text[j] != '"' && text[j] != '\n' {
				j++
			}
			out = append(out, token{text: text[i+1 : j], line: line})
			if j < len(text) && text[j] == '"' {
				j++
			}
			i = j
		default:
			j := i
			for j < len(text) && !strings.ContainsRune(" \t\r\n{};#", rune(text[j])) {
				j++
			}
			out = append(out, token{text: text[i:j], line: line})
			i = j
		}
	}
	return out
}

type token struct {
	text string
	line int
}

type tokens struct {
	list []token
	pos  int
}

func (t *tokens) peek() (token, bool) {
	if t.pos >= len(t.list) {
		return token{}, false
	}
	return t.list[t.pos], true
}

func (t *tokens) next() (token, bool) {
	tok, ok := t.peek()
	if ok {
		t.pos++
	}
	return tok, ok
}

func (t *tokens) expect(text string) error {
	tok, ok := t.next()
	if !ok {
		return fmt.Errorf("config: unexpected end of input, expected %q", text)
	}
	if tok.text != text {
		return fmt.Errorf("config: line %d: expected %q, got %q", tok.line, text, tok.text)
	}
	return nil
}

func (p *parser) run(text string) error {
	ts := &tokens{list: tokenize(text)}
	for {
		tok, ok := ts.next()
		if !ok {
			return nil
		}
		switch tok.text {
		case "router":
			if err := p.parseRouter(ts); err != nil {
				return err
			}
		case "neighbor":
			if err := p.parseNeighbor(ts); err != nil {
				return err
			}
		case "prefix-list":
			if err := p.parsePrefixList(ts); err != nil {
				return err
			}
		case "route-map":
			if err := p.parseRouteMap(ts); err != nil {
				return err
			}
		case ";":
			// stray separator
		default:
			return fmt.Errorf("config: line %d: unknown top-level directive %q", tok.line, tok.text)
		}
	}
}

// statement reads tokens until ';', '}' (not consumed), or end of line
// group; it returns nil at the closing brace.
func statement(ts *tokens) ([]token, bool, error) {
	var stmt []token
	for {
		tok, ok := ts.peek()
		if !ok {
			return nil, false, fmt.Errorf("config: unexpected end of input inside block")
		}
		if tok.text == "}" {
			if len(stmt) > 0 {
				return stmt, true, nil
			}
			ts.next()
			return nil, false, nil
		}
		ts.next()
		if tok.text == ";" {
			if len(stmt) > 0 {
				return stmt, true, nil
			}
			continue
		}
		if tok.text == "{" {
			return nil, false, fmt.Errorf("config: line %d: unexpected '{'", tok.line)
		}
		stmt = append(stmt, tok)
		// A statement also ends at a line break: detect via next token's
		// line number.
		if nxt, ok := ts.peek(); ok && nxt.line != tok.line && nxt.text != "{" {
			return stmt, true, nil
		}
	}
}

func (p *parser) parseRouter(ts *tokens) error {
	if err := ts.expect("{"); err != nil {
		return err
	}
	p.sawRouter = true
	for {
		stmt, ok, err := statement(ts)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		key := stmt[0]
		args := stmt[1:]
		switch key.text {
		case "as":
			v, err := argUint32(key, args)
			if err != nil {
				return err
			}
			p.cfg.AS = v
		case "id":
			a, err := argAddr(key, args)
			if err != nil {
				return err
			}
			p.cfg.ID = a
		case "next-hop":
			a, err := argAddr(key, args)
			if err != nil {
				return err
			}
			p.cfg.NextHop = a
		case "next-hop6":
			a, err := argAddr(key, args)
			if err != nil {
				return err
			}
			p.cfg.NextHop6 = a
		case "listen":
			s, err := argOne(key, args)
			if err != nil {
				return err
			}
			p.cfg.ListenAddr = s
		case "fib":
			s, err := argOne(key, args)
			if err != nil {
				return err
			}
			p.cfg.FIBEngine = s
		case "hold-time":
			v, err := argUint16(key, args)
			if err != nil {
				return err
			}
			p.cfg.HoldTime = v
		case "mrai":
			s, err := argOne(key, args)
			if err != nil {
				return err
			}
			d, err := time.ParseDuration(s)
			if err != nil {
				return fmt.Errorf("config: line %d: bad mrai %q: %v", key.line, s, err)
			}
			p.cfg.MRAI = d
		case "damping":
			p.cfg.Damping = &damping.Config{}
		case "update-groups":
			p.cfg.UpdateGroups = true
		case "export-batch":
			v, err := argInt(key, args)
			if err != nil {
				return err
			}
			p.cfg.ExportBatch = v
		case "shards":
			v, err := argInt(key, args)
			if err != nil {
				return err
			}
			p.cfg.Shards = v
		default:
			return fmt.Errorf("config: line %d: unknown router directive %q", key.line, key.text)
		}
	}
}

func (p *parser) parseNeighbor(ts *tokens) error {
	tok, ok := ts.next()
	if !ok {
		return fmt.Errorf("config: neighbor missing AS")
	}
	as, err := strconv.ParseUint(tok.text, 10, 32)
	if err != nil {
		return fmt.Errorf("config: line %d: bad neighbor AS %q", tok.line, tok.text)
	}
	decl := neighborDecl{as: uint32(as), line: tok.line}
	if err := ts.expect("{"); err != nil {
		return err
	}
	for {
		stmt, ok, err := statement(ts)
		if err != nil {
			return err
		}
		if !ok {
			p.neighbors = append(p.neighbors, decl)
			return nil
		}
		key := stmt[0]
		args := stmt[1:]
		switch key.text {
		case "import":
			decl.importName, err = argOne(key, args)
		case "export":
			decl.exportName, err = argOne(key, args)
		case "dial":
			decl.dialTarget, err = argOne(key, args)
		case "max-prefixes":
			decl.maxPrefixes, err = argInt(key, args)
		default:
			return fmt.Errorf("config: line %d: unknown neighbor directive %q", key.line, key.text)
		}
		if err != nil {
			return err
		}
	}
}

func (p *parser) parsePrefixList(ts *tokens) error {
	name, ok := ts.next()
	if !ok {
		return fmt.Errorf("config: prefix-list missing name")
	}
	if err := ts.expect("{"); err != nil {
		return err
	}
	pl := &policy.PrefixList{Name: name.text}
	for {
		stmt, ok, err := statement(ts)
		if err != nil {
			return err
		}
		if !ok {
			p.prefixLists[name.text] = pl
			return nil
		}
		rule, err := parsePrefixRule(stmt)
		if err != nil {
			return err
		}
		pl.Rules = append(pl.Rules, rule)
	}
}

// parsePrefixRule parses "permit|deny <prefix> [ge N] [le N]".
func parsePrefixRule(stmt []token) (policy.PrefixRule, error) {
	var rule policy.PrefixRule
	switch stmt[0].text {
	case "permit":
		rule.Action = policy.Permit
	case "deny":
		rule.Action = policy.Deny
	default:
		return rule, fmt.Errorf("config: line %d: prefix-list rule must start with permit/deny", stmt[0].line)
	}
	if len(stmt) < 2 {
		return rule, fmt.Errorf("config: line %d: prefix-list rule missing prefix", stmt[0].line)
	}
	pfx, err := netaddr.ParsePrefix(stmt[1].text)
	if err != nil {
		return rule, fmt.Errorf("config: line %d: %v", stmt[1].line, err)
	}
	rule.Prefix = pfx
	maxLen := pfx.Addr().Bits()
	rest := stmt[2:]
	for len(rest) >= 2 {
		v, err := strconv.Atoi(rest[1].text)
		if err != nil || v < 0 || v > maxLen {
			return rule, fmt.Errorf("config: line %d: bad %s bound %q", rest[0].line, rest[0].text, rest[1].text)
		}
		switch rest[0].text {
		case "ge":
			rule.GE = v
		case "le":
			rule.LE = v
		default:
			return rule, fmt.Errorf("config: line %d: unknown qualifier %q", rest[0].line, rest[0].text)
		}
		rest = rest[2:]
	}
	if len(rest) != 0 {
		return rule, fmt.Errorf("config: line %d: trailing tokens in prefix rule", rest[0].line)
	}
	return rule, nil
}

func (p *parser) parseRouteMap(ts *tokens) error {
	name, ok := ts.next()
	if !ok {
		return fmt.Errorf("config: route-map missing name")
	}
	if err := ts.expect("{"); err != nil {
		return err
	}
	rm := &policy.RouteMap{Name: name.text}
	for {
		tok, ok := ts.next()
		if !ok {
			return fmt.Errorf("config: route-map %s: unexpected end of input", name.text)
		}
		switch tok.text {
		case "}":
			p.routeMaps[name.text] = rm
			return nil
		case ";":
		case "default":
			val, ok := ts.next()
			if !ok || (val.text != "permit" && val.text != "deny") {
				return fmt.Errorf("config: line %d: default must be permit or deny", tok.line)
			}
			rm.DefaultPermit = val.text == "permit"
		case "term":
			term, err := p.parseTerm(ts)
			if err != nil {
				return err
			}
			rm.Terms = append(rm.Terms, term)
		default:
			return fmt.Errorf("config: line %d: unknown route-map directive %q", tok.line, tok.text)
		}
	}
}

func (p *parser) parseTerm(ts *tokens) (policy.Term, error) {
	var term policy.Term
	name, ok := ts.next()
	if !ok {
		return term, fmt.Errorf("config: term missing name")
	}
	term.Name = name.text
	term.Action = policy.Permit
	if err := ts.expect("{"); err != nil {
		return term, err
	}
	for {
		stmt, ok, err := statement(ts)
		if err != nil {
			return term, err
		}
		if !ok {
			return term, nil
		}
		key := stmt[0]
		args := stmt[1:]
		switch key.text {
		case "match":
			if err := p.parseMatch(&term.Match, key, args); err != nil {
				return term, err
			}
		case "set":
			if err := parseSet(&term.Set, key, args); err != nil {
				return term, err
			}
		case "action":
			s, err := argOne(key, args)
			if err != nil {
				return term, err
			}
			switch s {
			case "permit":
				term.Action = policy.Permit
			case "deny":
				term.Action = policy.Deny
			default:
				return term, fmt.Errorf("config: line %d: action must be permit or deny", key.line)
			}
		default:
			return term, fmt.Errorf("config: line %d: unknown term directive %q", key.line, key.text)
		}
	}
}

func (p *parser) parseMatch(m *policy.Match, key token, args []token) error {
	if len(args) < 1 {
		return fmt.Errorf("config: line %d: match needs a kind", key.line)
	}
	kind := args[0].text
	rest := args[1:]
	switch kind {
	case "prefix-list":
		name, err := argOne(args[0], rest)
		if err != nil {
			return err
		}
		pl, ok := p.prefixLists[name]
		if !ok {
			return fmt.Errorf("config: line %d: unknown prefix-list %q (define it before use)", key.line, name)
		}
		m.PrefixList = pl
	case "as-contains":
		v, err := argUint32(args[0], rest)
		if err != nil {
			return err
		}
		if m.ASPath == nil {
			m.ASPath = &policy.ASPathCond{}
		}
		m.ASPath.Contains = append(m.ASPath.Contains, v)
	case "neighbor-as":
		v, err := argUint32(args[0], rest)
		if err != nil {
			return err
		}
		if m.ASPath == nil {
			m.ASPath = &policy.ASPathCond{}
		}
		m.ASPath.NeighborAS = v
	case "max-path-len":
		v, err := argInt(args[0], rest)
		if err != nil {
			return err
		}
		if m.ASPath == nil {
			m.ASPath = &policy.ASPathCond{}
		}
		m.ASPath.MaxLen = v
	case "community":
		s, err := argOne(args[0], rest)
		if err != nil {
			return err
		}
		c, err := parseCommunity(s)
		if err != nil {
			return fmt.Errorf("config: line %d: %v", key.line, err)
		}
		m.Community = append(m.Community, c)
	case "as-path":
		s, err := argOne(args[0], rest)
		if err != nil {
			return err
		}
		pat, err := policy.CompileASPathPattern(s)
		if err != nil {
			return fmt.Errorf("config: line %d: %v", key.line, err)
		}
		if m.ASPath == nil {
			m.ASPath = &policy.ASPathCond{}
		}
		m.ASPath.Pattern = pat
	default:
		return fmt.Errorf("config: line %d: unknown match kind %q", key.line, kind)
	}
	return nil
}

func parseSet(s *policy.Set, key token, args []token) error {
	if len(args) < 1 {
		return fmt.Errorf("config: line %d: set needs a kind", key.line)
	}
	kind := args[0].text
	rest := args[1:]
	switch kind {
	case "local-pref":
		v, err := argUint32(args[0], rest)
		if err != nil {
			return err
		}
		s.LocalPref = &v
	case "med":
		v, err := argUint32(args[0], rest)
		if err != nil {
			return err
		}
		s.MED = &v
	case "prepend":
		if len(rest) != 2 {
			return fmt.Errorf("config: line %d: set prepend needs AS and count", key.line)
		}
		asn, err := strconv.ParseUint(rest[0].text, 10, 32)
		if err != nil {
			return fmt.Errorf("config: line %d: bad prepend AS", rest[0].line)
		}
		count, err := strconv.Atoi(rest[1].text)
		if err != nil || count < 1 {
			return fmt.Errorf("config: line %d: bad prepend count", rest[1].line)
		}
		s.PrependAS = uint32(asn)
		s.PrependCount = count
	case "community":
		str, err := argOne(args[0], rest)
		if err != nil {
			return err
		}
		c, err := parseCommunity(str)
		if err != nil {
			return fmt.Errorf("config: line %d: %v", key.line, err)
		}
		s.AddCommunity = append(s.AddCommunity, c)
	default:
		return fmt.Errorf("config: line %d: unknown set kind %q", key.line, kind)
	}
	return nil
}

func parseCommunity(s string) (wire.Community, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, fmt.Errorf("bad community %q (want asn:value)", s)
	}
	a, err1 := strconv.ParseUint(parts[0], 10, 16)
	v, err2 := strconv.ParseUint(parts[1], 10, 16)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad community %q", s)
	}
	return wire.Community(uint32(a)<<16 | uint32(v)), nil
}

func (p *parser) finish() (core.Config, error) {
	if !p.sawRouter {
		return core.Config{}, fmt.Errorf("config: missing router block")
	}
	for _, d := range p.neighbors {
		n := core.NeighborConfig{AS: d.as, DialTarget: d.dialTarget, MaxPrefixes: d.maxPrefixes}
		if d.importName != "" {
			rm, ok := p.routeMaps[d.importName]
			if !ok {
				return core.Config{}, fmt.Errorf("config: line %d: unknown route-map %q", d.line, d.importName)
			}
			n.Import = rm
		}
		if d.exportName != "" {
			rm, ok := p.routeMaps[d.exportName]
			if !ok {
				return core.Config{}, fmt.Errorf("config: line %d: unknown route-map %q", d.line, d.exportName)
			}
			n.Export = rm
		}
		p.cfg.Neighbors = append(p.cfg.Neighbors, n)
	}
	return p.cfg, nil
}

// --- small argument helpers ---

func argOne(key token, args []token) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("config: line %d: %s takes exactly one argument", key.line, key.text)
	}
	return args[0].text, nil
}

func argInt(key token, args []token) (int, error) {
	s, err := argOne(key, args)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("config: line %d: bad number %q", key.line, s)
	}
	return v, nil
}

func argUint16(key token, args []token) (uint16, error) {
	s, err := argOne(key, args)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("config: line %d: bad number %q", key.line, s)
	}
	return uint16(v), nil
}

func argUint32(key token, args []token) (uint32, error) {
	s, err := argOne(key, args)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("config: line %d: bad number %q", key.line, s)
	}
	return uint32(v), nil
}

func argAddr(key token, args []token) (netaddr.Addr, error) {
	s, err := argOne(key, args)
	if err != nil {
		return netaddr.Addr{}, err
	}
	a, err := netaddr.ParseAddr(s)
	if err != nil {
		return netaddr.Addr{}, fmt.Errorf("config: line %d: %v", key.line, err)
	}
	return a, nil
}
