//! Recursive-descent parser for the Orion SQL dialect.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::token::{lex, Token};
use orion_core::prelude::{CmpOp, ColumnType};

/// Parses one statement (a trailing semicolon is optional).
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat_semicolons(&mut self) {
        while self.eat(&Token::Semicolon) {}
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("trailing input: {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!("expected {what}, found {other:?}"))),
        }
    }

    fn number(&mut self, what: &str) -> Result<f64> {
        let neg = self.eat(&Token::Minus);
        match self.next() {
            Token::Number(n) => Ok(if neg { -n } else { n }),
            other => Err(SqlError::Parse(format!("expected {what}, found {other:?}"))),
        }
    }

    /// Swallows the optional `TRANSACTION` / `WORK` noise word after
    /// `BEGIN` / `COMMIT` / `ROLLBACK`.
    fn eat_txn_noise(&mut self) {
        if !self.eat_kw("transaction") {
            self.eat_kw("work");
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            let trace = !analyze && self.eat_kw("trace");
            let inner = self.statement()?;
            return Ok(Statement::Explain { analyze, trace, inner: Box::new(inner) });
        }
        if self.eat_kw("create") {
            if self.eat_kw("index") {
                self.create_index()
            } else {
                self.create_table()
            }
        } else if self.eat_kw("insert") {
            self.insert()
        } else if self.eat_kw("select") {
            self.select()
        } else if self.eat_kw("update") {
            let table = self.ident("table name")?;
            self.expect_kw("set")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident("column name")?;
                self.expect(&Token::Eq, "'='")?;
                sets.push((col, self.insert_value()?));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let filter = if self.eat_kw("where") { Some(self.pred()?) } else { None };
            Ok(Statement::Update { table, sets, filter })
        } else if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident("table name")?;
            let filter = if self.eat_kw("where") { Some(self.pred()?) } else { None };
            Ok(Statement::Delete { table, filter })
        } else if self.eat_kw("drop") {
            self.expect_kw("index")?;
            let name = self.ident("index name")?;
            Ok(Statement::DropIndex { name })
        } else if self.eat_kw("analyze") {
            let table = self.ident("table name")?;
            Ok(Statement::Analyze { table })
        } else if self.eat_kw("begin") {
            self.eat_txn_noise();
            Ok(Statement::Begin)
        } else if self.eat_kw("commit") {
            self.eat_txn_noise();
            Ok(Statement::Commit)
        } else if self.eat_kw("rollback") {
            self.eat_txn_noise();
            Ok(Statement::Rollback)
        } else {
            Err(SqlError::Parse(format!("unknown statement start: {:?}", self.peek())))
        }
    }

    fn column_type(&mut self) -> Result<ColumnType> {
        let t = self.ident("column type")?;
        match t.to_ascii_lowercase().as_str() {
            "int" | "integer" | "bigint" => Ok(ColumnType::Int),
            "real" | "float" | "double" => Ok(ColumnType::Real),
            "text" | "varchar" | "string" => Ok(ColumnType::Text),
            "bool" | "boolean" => Ok(ColumnType::Bool),
            other => Err(SqlError::Parse(format!("unknown type '{other}'"))),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("table")?;
        let name = self.ident("table name")?;
        self.expect(&Token::LParen, "'('")?;
        let mut columns = Vec::new();
        let mut correlated = Vec::new();
        loop {
            if self.eat_kw("correlated") {
                self.expect(&Token::LParen, "'('")?;
                let mut group = Vec::new();
                loop {
                    group.push(self.ident("column name")?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen, "')'")?;
                correlated.push(group);
            } else {
                let col = self.ident("column name")?;
                let ty = self.column_type()?;
                let uncertain = self.eat_kw("uncertain");
                columns.push(ColumnDef { name: col, ty, uncertain });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen, "')'")?;
        Ok(Statement::CreateTable { name, columns, correlated })
    }

    fn create_index(&mut self) -> Result<Statement> {
        let name = self.ident("index name")?;
        self.expect_kw("on")?;
        let table = self.ident("table name")?;
        self.expect(&Token::LParen, "'('")?;
        let column = self.ident("column name")?;
        self.expect(&Token::RParen, "')'")?;
        let kind = if self.eat_kw("using") { Some(self.ident("index kind")?) } else { None };
        Ok(Statement::CreateIndex { name, table, column, kind })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident("table name")?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.insert_value()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "')'")?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn insert_value(&mut self) -> Result<InsertValue> {
        match self.peek().clone() {
            Token::Number(_) | Token::Minus => Ok(InsertValue::Number(self.number("number")?)),
            Token::Str(s) => {
                self.next();
                Ok(InsertValue::Text(s))
            }
            Token::Ident(id) => {
                let lower = id.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.next();
                        Ok(InsertValue::Null)
                    }
                    "true" => {
                        self.next();
                        Ok(InsertValue::Bool(true))
                    }
                    "false" => {
                        self.next();
                        Ok(InsertValue::Bool(false))
                    }
                    _ => Ok(InsertValue::Pdf(self.pdf_expr()?)),
                }
            }
            other => Err(SqlError::Parse(format!("expected value, found {other:?}"))),
        }
    }

    fn pdf_expr(&mut self) -> Result<PdfExpr> {
        let name = self.ident("pdf constructor")?.to_ascii_lowercase();
        self.expect(&Token::LParen, "'('")?;
        let expr = match name.as_str() {
            "gaussian" | "gaus" | "normal" => {
                let m = self.number("mean")?;
                self.expect(&Token::Comma, "','")?;
                let v = self.number("variance")?;
                PdfExpr::Gaussian(m, v)
            }
            "uniform" | "unif" => {
                let a = self.number("lo")?;
                self.expect(&Token::Comma, "','")?;
                let b = self.number("hi")?;
                PdfExpr::Uniform(a, b)
            }
            "exponential" | "expo" => PdfExpr::Exponential(self.number("rate")?),
            "poisson" | "pois" => PdfExpr::Poisson(self.number("lambda")?),
            "binomial" | "binom" => {
                let n = self.number("n")?;
                self.expect(&Token::Comma, "','")?;
                let p = self.number("p")?;
                if n < 1.0 || n.fract() != 0.0 {
                    return Err(SqlError::Parse("BINOMIAL n must be a positive integer".into()));
                }
                PdfExpr::Binomial(n as u64, p)
            }
            "bernoulli" | "bern" => PdfExpr::Bernoulli(self.number("p")?),
            "geometric" | "geom" => PdfExpr::Geometric(self.number("p")?),
            "discrete" => {
                let mut pts = Vec::new();
                loop {
                    let v = self.number("value")?;
                    self.expect(&Token::Colon, "':'")?;
                    let p = self.number("probability")?;
                    pts.push((v, p));
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                PdfExpr::Discrete(pts)
            }
            "histogram" | "hist" => {
                let lo = self.number("lo")?;
                self.expect(&Token::Comma, "','")?;
                let width = self.number("width")?;
                let mut masses = Vec::new();
                while self.eat(&Token::Comma) {
                    masses.push(self.number("mass")?);
                }
                PdfExpr::Histogram { lo, width, masses }
            }
            "joint" => {
                let mut pts = Vec::new();
                loop {
                    self.expect(&Token::LParen, "'('")?;
                    let mut v = Vec::new();
                    loop {
                        v.push(self.number("coordinate")?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen, "')'")?;
                    self.expect(&Token::Colon, "':'")?;
                    let p = self.number("probability")?;
                    pts.push((v, p));
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                PdfExpr::Joint(pts)
            }
            other => return Err(SqlError::Parse(format!("unknown pdf constructor '{other}'"))),
        };
        self.expect(&Token::RParen, "')'")?;
        Ok(expr)
    }

    fn select(&mut self) -> Result<Statement> {
        let distinct = self.eat_kw("distinct");
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.from_clause()?;
        let filter = if self.eat_kw("where") { Some(self.pred()?) } else { None };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let col = self.ident("column name")?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            let n = self.number("limit count")?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(SqlError::Parse("LIMIT must be a non-negative integer".into()));
            }
            Some(n as usize)
        } else {
            None
        };
        Ok(Statement::Select { items, from, filter, distinct, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let id = self.ident("column or function")?;
        let lower = id.to_ascii_lowercase();
        // Function names are only functions when a '(' follows; otherwise
        // they are ordinary column references (so columns named `median`,
        // `prob`, ... keep working).
        if self.peek() != &Token::LParen {
            return Ok(SelectItem::Column(id));
        }
        match lower.as_str() {
            "expected" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::Expected(col))
            }
            "prob" => {
                self.expect(&Token::LParen, "'('")?;
                let inner = self.pred()?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::ProbOf(inner))
            }
            "variance" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::Variance(col))
            }
            "median" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::Median(col))
            }
            "quantile" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::Comma, "','")?;
                let q = self.number("quantile level")?;
                self.expect(&Token::RParen, "')'")?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(SqlError::Parse("QUANTILE level must be in [0, 1]".into()));
                }
                Ok(SelectItem::Quantile(col, q))
            }
            "esum" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::SumAgg(col))
            }
            "ecount" => {
                self.expect(&Token::LParen, "'('")?;
                self.expect(&Token::Star, "'*'")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::CountAgg)
            }
            "eavg" => {
                self.expect(&Token::LParen, "'('")?;
                let col = self.ident("column")?;
                self.expect(&Token::RParen, "')'")?;
                Ok(SelectItem::AvgAgg(col))
            }
            _ => Ok(SelectItem::Column(id)),
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_clause(&mut self) -> Result<FromClause> {
        let left = self.ident("table name")?;
        if self.eat_kw("join") {
            let right = self.ident("table name")?;
            let on = if self.eat_kw("on") { Some(self.pred()?) } else { None };
            return Ok(FromClause::Join { left, right, on });
        }
        if self.eat(&Token::Comma) {
            let right = self.ident("table name")?;
            return Ok(FromClause::Join { left, right, on: None });
        }
        Ok(FromClause::Table(left))
    }

    /// `pred := or_term`
    fn pred(&mut self) -> Result<Pred> {
        self.or_pred()
    }

    fn or_pred(&mut self) -> Result<Pred> {
        let mut parts = vec![self.and_pred()?];
        while self.eat_kw("or") {
            parts.push(self.and_pred()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one part") } else { Pred::Or(parts) })
    }

    fn and_pred(&mut self) -> Result<Pred> {
        let mut parts = vec![self.atom_pred()?];
        while self.eat_kw("and") {
            parts.push(self.atom_pred()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("one part") } else { Pred::And(parts) })
    }

    fn atom_pred(&mut self) -> Result<Pred> {
        if self.eat_kw("not") {
            return Ok(Pred::Not(Box::new(self.atom_pred()?)));
        }
        if self.peek().is_kw("prob") {
            self.next();
            self.expect(&Token::LParen, "'('")?;
            // Attribute-set form: PROB(col [, col]*) — distinguished by a
            // following ')' or ',' right after identifiers.
            let save = self.pos;
            if let Ok(attrs) = self.try_attr_list() {
                let op = self.cmp_op()?;
                let p = self.number("probability")?;
                return Ok(Pred::AttrThreshold(attrs, op, p));
            }
            self.pos = save;
            let inner = self.pred()?;
            self.expect(&Token::RParen, "')'")?;
            let op = self.cmp_op()?;
            let p = self.number("probability")?;
            return Ok(Pred::ProbThreshold(Box::new(inner), op, p));
        }
        if self.eat(&Token::LParen) {
            let inner = self.pred()?;
            self.expect(&Token::RParen, "')'")?;
            return Ok(inner);
        }
        // term [BETWEEN a AND b | op term]
        let left = self.term()?;
        if self.peek().is_kw("between") {
            let col = match left {
                Term::Col(c) => c,
                _ => return Err(SqlError::Parse("BETWEEN requires a column".into())),
            };
            self.next();
            let lo = self.number("lower bound")?;
            self.expect_kw("and")?;
            let hi = self.number("upper bound")?;
            return Ok(Pred::Between(col, lo, hi));
        }
        let op = self.cmp_op()?;
        let right = self.term()?;
        Ok(Pred::Cmp(left, op, right))
    }

    /// Attempts to parse `col [, col]* )` — the attribute-set form of PROB.
    fn try_attr_list(&mut self) -> Result<Vec<String>> {
        let mut attrs = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Ident(s)
                    if !s.eq_ignore_ascii_case("not") && !s.eq_ignore_ascii_case("prob") =>
                {
                    self.next();
                    attrs.push(s);
                }
                _ => return Err(SqlError::Parse("not an attribute list".into())),
            }
            if self.eat(&Token::Comma) {
                continue;
            }
            if self.eat(&Token::RParen) {
                // Must be followed by a comparison for the threshold form.
                match self.peek() {
                    Token::Lt | Token::Le | Token::Gt | Token::Ge | Token::Eq | Token::Ne => {
                        return Ok(attrs)
                    }
                    _ => return Err(SqlError::Parse("not an attribute threshold".into())),
                }
            }
            return Err(SqlError::Parse("not an attribute list".into()));
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek() {
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            other => return Err(SqlError::Parse(format!("expected comparison, found {other:?}"))),
        };
        self.next();
        Ok(op)
    }

    fn term(&mut self) -> Result<Term> {
        match self.peek().clone() {
            Token::Number(_) | Token::Minus => Ok(Term::Num(self.number("number")?)),
            Token::Str(s) => {
                self.next();
                Ok(Term::Str(s))
            }
            Token::Ident(id) => {
                self.next();
                match id.to_ascii_lowercase().as_str() {
                    "null" => Ok(Term::Null),
                    "true" => Ok(Term::Bool(true)),
                    "false" => Ok(Term::Bool(false)),
                    _ => Ok(Term::Col(id)),
                }
            }
            other => Err(SqlError::Parse(format!("expected term, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table_with_uncertainty() {
        let s = parse(
            "CREATE TABLE obj (oid INT, x REAL UNCERTAIN, y REAL UNCERTAIN, CORRELATED (x, y))",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns, correlated } => {
                assert_eq!(name, "obj");
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].uncertain);
                assert!(columns[1].uncertain && columns[2].uncertain);
                assert_eq!(correlated, vec![vec!["x".to_string(), "y".to_string()]]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_with_pdf_constructors() {
        let s =
            parse("INSERT INTO readings VALUES (1, GAUSSIAN(20, 5)), (2, DISCRETE(0:0.1, 1:0.9))")
                .unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "readings");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][1], InsertValue::Pdf(PdfExpr::Gaussian(20.0, 5.0)));
                assert_eq!(
                    rows[1][1],
                    InsertValue::Pdf(PdfExpr::Discrete(vec![(0.0, 0.1), (1.0, 0.9)]))
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn insert_joint_pdf() {
        let s = parse("INSERT INTO t VALUES (JOINT((4, 5):0.9, (2, 3):0.1))").unwrap();
        match s {
            Statement::Insert { rows, .. } => match &rows[0][0] {
                InsertValue::Pdf(PdfExpr::Joint(pts)) => {
                    assert_eq!(pts.len(), 2);
                    assert_eq!(pts[0], (vec![4.0, 5.0], 0.9));
                }
                other => panic!("wrong value: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn select_with_where() {
        let s = parse("SELECT rid, value FROM readings WHERE value < 20 AND rid >= 2").unwrap();
        match s {
            Statement::Select { items, from, filter, .. } => {
                assert_eq!(items.len(), 2);
                assert_eq!(from, FromClause::Table("readings".into()));
                assert!(matches!(filter, Some(Pred::And(_))));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn select_join() {
        let s = parse("SELECT * FROM a JOIN b ON a.x < b.y").unwrap();
        match s {
            Statement::Select { from, .. } => match from {
                FromClause::Join { left, right, on } => {
                    assert_eq!((left.as_str(), right.as_str()), ("a", "b"));
                    assert!(matches!(on, Some(Pred::Cmp(_, CmpOp::Lt, _))));
                }
                other => panic!("wrong from: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn prob_threshold_forms() {
        let s = parse("SELECT * FROM t WHERE PROB(x BETWEEN 10 AND 20) > 0.5").unwrap();
        match s {
            Statement::Select {
                filter: Some(Pred::ProbThreshold(inner, CmpOp::Gt, p)), ..
            } => {
                assert_eq!(*inner, Pred::Between("x".into(), 10.0, 20.0));
                assert_eq!(p, 0.5);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        let s = parse("SELECT * FROM t WHERE PROB(x) >= 0.8").unwrap();
        match s {
            Statement::Select {
                filter: Some(Pred::AttrThreshold(attrs, CmpOp::Ge, p)), ..
            } => {
                assert_eq!(attrs, vec!["x".to_string()]);
                assert_eq!(p, 0.8);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn aggregates_and_expected() {
        let s = parse("SELECT ECOUNT(*), ESUM(x), EAVG(x) FROM t").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items[0], SelectItem::CountAgg);
                assert_eq!(items[1], SelectItem::SumAgg("x".into()));
                assert_eq!(items[2], SelectItem::AvgAgg("x".into()));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        let s = parse("SELECT rid, EXPECTED(value) FROM t").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items[1], SelectItem::Expected("value".into()));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn delete_and_drop() {
        assert_eq!(
            parse("DELETE FROM t WHERE rid = 3").unwrap(),
            Statement::Delete {
                table: "t".into(),
                filter: Some(Pred::Cmp(Term::Col("rid".into()), CmpOp::Eq, Term::Num(3.0))),
            }
        );
        // Tables are never dropped: DROP names only an index.
        assert!(parse("DROP TABLE t;").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELEC * FROM t").is_err());
        assert!(parse("SELECT * FORM t").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("INSERT INTO t VALUES (NOPE(1))").is_err());
        assert!(parse("CREATE TABLE t (x BLOB)").is_err());
        assert!(parse("SELECT * FROM t extra garbage").is_err());
    }

    #[test]
    fn negative_numbers_in_pdfs() {
        let s = parse("INSERT INTO t VALUES (UNIFORM(-5, 5))").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], InsertValue::Pdf(PdfExpr::Uniform(-5.0, 5.0)));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn function_names_need_parens() {
        // A column named like a function parses as a column when no '('
        // follows.
        let s = parse("SELECT median, prob FROM t").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items[0], SelectItem::Column("median".into()));
                assert_eq!(items[1], SelectItem::Column("prob".into()));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        let s = parse("SELECT MEDIAN(x) FROM t").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items[0], SelectItem::Median("x".into()));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn update_statement_parses() {
        let s = parse("UPDATE t SET x = GAUSSIAN(1, 2), k = 5 WHERE k = 3").unwrap();
        match s {
            Statement::Update { table, sets, filter } => {
                assert_eq!(table, "t");
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].0, "x");
                assert_eq!(sets[0].1, InsertValue::Pdf(PdfExpr::Gaussian(1.0, 2.0)));
                assert_eq!(sets[1].1, InsertValue::Number(5.0));
                assert!(filter.is_some());
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert!(parse("UPDATE t SET").is_err());
        assert!(parse("UPDATE t x = 5").is_err());
    }

    #[test]
    fn order_by_limit_distinct_parse() {
        let s = parse("SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 3").unwrap();
        match s {
            Statement::Select { distinct, order_by, limit, .. } => {
                assert!(distinct);
                assert_eq!(order_by, Some(("a".to_string(), true)));
                assert_eq!(limit, Some(3));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        let s = parse("SELECT a FROM t ORDER BY a ASC").unwrap();
        match s {
            Statement::Select { distinct, order_by, limit, .. } => {
                assert!(!distinct);
                assert_eq!(order_by, Some(("a".to_string(), false)));
                assert_eq!(limit, None);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert!(parse("SELECT a FROM t LIMIT 2.5").is_err());
        assert!(parse("SELECT a FROM t ORDER a").is_err());
    }

    #[test]
    fn analyze_statement_parses() {
        assert_eq!(
            parse("ANALYZE readings;").unwrap(),
            Statement::Analyze { table: "readings".into() }
        );
        // EXPLAIN ANALYZE still binds ANALYZE as the explain modifier.
        match parse("EXPLAIN ANALYZE SELECT * FROM t").unwrap() {
            Statement::Explain { analyze: true, trace: false, inner } => {
                assert!(matches!(*inner, Statement::Select { .. }));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert!(parse("ANALYZE").is_err());
    }

    #[test]
    fn index_ddl_parses() {
        assert_eq!(
            parse("CREATE INDEX ix_v ON readings (v) USING cdf").unwrap(),
            Statement::CreateIndex {
                name: "ix_v".into(),
                table: "readings".into(),
                column: "v".into(),
                kind: Some("cdf".into()),
            }
        );
        assert_eq!(
            parse("CREATE INDEX ix_rid ON readings (rid);").unwrap(),
            Statement::CreateIndex {
                name: "ix_rid".into(),
                table: "readings".into(),
                column: "rid".into(),
                kind: None,
            }
        );
        assert_eq!(parse("DROP INDEX ix_v").unwrap(), Statement::DropIndex { name: "ix_v".into() });
        assert!(parse("CREATE INDEX ix ON t").is_err(), "missing column list");
        assert!(parse("CREATE INDEX ON t (v)").is_err(), "missing name");
        assert!(parse("DROP INDEX").is_err());
    }

    #[test]
    fn not_and_parens() {
        let s = parse("SELECT * FROM t WHERE NOT (x < 5 OR y > 2)").unwrap();
        match s {
            Statement::Select { filter: Some(Pred::Not(inner)), .. } => {
                assert!(matches!(*inner, Pred::Or(_)));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }
}
