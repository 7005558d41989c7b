//! Router configuration: identity, neighbors, filters and static routes.
//!
//! The configuration file format mirrors BIRD's structure at a much smaller
//! scale:
//!
//! ```text
//! router id 10.0.0.2;
//! local as 3491;
//!
//! filter customer_in {
//!     if net ~ [ 208.65.152.0/22{22,24} ] then accept;
//!     reject;
//! }
//!
//! neighbor 10.0.1.1 as 17557 {
//!     import filter customer_in;
//!     export filter announce_all;
//! }
//!
//! static 203.0.113.0/24 via 10.0.0.1;
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use dice_bgp::prefix::Ipv4Prefix;

use crate::policy::{FilterDef, ParseError, Parser, Token};

/// Configuration of one BGP neighbor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborConfig {
    /// The neighbor's address.
    pub address: Ipv4Addr,
    /// The neighbor's AS number.
    pub remote_as: u32,
    /// Name of the import filter, if any (`None` accepts everything).
    pub import_filter: Option<String>,
    /// Name of the export filter, if any (`None` exports everything).
    pub export_filter: Option<String>,
}

/// A statically configured (locally originated) route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticRoute {
    /// The originated prefix.
    pub prefix: Ipv4Prefix,
    /// Next hop advertised for the prefix.
    pub next_hop: Ipv4Addr,
}

/// Complete router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// The router identifier.
    pub router_id: Ipv4Addr,
    /// The local AS number.
    pub local_as: u32,
    /// Neighbors in declaration order.
    pub neighbors: Vec<NeighborConfig>,
    /// Named filters.
    pub filters: BTreeMap<String, FilterDef>,
    /// Locally originated routes.
    pub static_routes: Vec<StaticRoute>,
}

impl RouterConfig {
    /// Creates a minimal configuration with no neighbors or filters.
    pub fn new(router_id: Ipv4Addr, local_as: u32) -> Self {
        RouterConfig {
            router_id,
            local_as,
            neighbors: Vec::new(),
            filters: BTreeMap::new(),
            static_routes: Vec::new(),
        }
    }

    /// Adds a neighbor; builder style.
    pub fn with_neighbor(mut self, n: NeighborConfig) -> Self {
        self.neighbors.push(n);
        self
    }

    /// Adds a filter; builder style.
    pub fn with_filter(mut self, f: FilterDef) -> Self {
        self.filters.insert(f.name.clone(), f);
        self
    }

    /// Adds a static route; builder style.
    pub fn with_static_route(mut self, prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Self {
        self.static_routes.push(StaticRoute { prefix, next_hop });
        self
    }

    /// Looks up a filter by name.
    pub fn filter(&self, name: &str) -> Option<&FilterDef> {
        self.filters.get(name)
    }

    /// Parses a configuration file.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let mut parser = Parser::new(input)?;
        let mut router_id = None;
        let mut local_as = None;
        let mut config = RouterConfig::new(Ipv4Addr::UNSPECIFIED, 0);

        while !parser.at_end() {
            if parser.eat_keyword("router") {
                parser.expect_keyword("id")?;
                let addr = parser.expect_ip()?;
                parser.expect(&Token::Semi)?;
                router_id = Some(Ipv4Addr::from(addr));
            } else if parser.eat_keyword("local") {
                parser.expect_keyword("as")?;
                let asn: u32 = parser.expect_narrow("AS number")?;
                parser.expect(&Token::Semi)?;
                local_as = Some(asn);
            } else if matches!(parser.peek(), Some(Token::Ident(s)) if s == "filter") {
                let filter = parser.parse_filter()?;
                config.filters.insert(filter.name.clone(), filter);
            } else if parser.eat_keyword("neighbor") {
                let address = Ipv4Addr::from(parser.expect_ip()?);
                parser.expect_keyword("as")?;
                let remote_as: u32 = parser.expect_narrow("AS number")?;
                parser.expect(&Token::LBrace)?;
                let mut import_filter = None;
                let mut export_filter = None;
                loop {
                    if parser.eat(&Token::RBrace) {
                        break;
                    }
                    if parser.eat_keyword("import") {
                        parser.expect_keyword("filter")?;
                        import_filter = Some(parser.expect_ident()?);
                        parser.expect(&Token::Semi)?;
                    } else if parser.eat_keyword("export") {
                        parser.expect_keyword("filter")?;
                        export_filter = Some(parser.expect_ident()?);
                        parser.expect(&Token::Semi)?;
                    } else {
                        return Err(
                            parser.error("expected `import`, `export` or `}` in neighbor block")
                        );
                    }
                }
                config.neighbors.push(NeighborConfig {
                    address,
                    remote_as,
                    import_filter,
                    export_filter,
                });
            } else if parser.eat_keyword("static") {
                let prefix = parser.expect_prefix()?;
                parser.expect_keyword("via")?;
                let next_hop = Ipv4Addr::from(parser.expect_ip()?);
                parser.expect(&Token::Semi)?;
                config.static_routes.push(StaticRoute { prefix, next_hop });
            } else {
                return Err(parser.error("expected top-level declaration"));
            }
        }

        config.router_id = router_id.ok_or_else(|| ParseError {
            line: 0,
            message: "missing `router id` declaration".into(),
        })?;
        config.local_as = local_as.ok_or_else(|| ParseError {
            line: 0,
            message: "missing `local as` declaration".into(),
        })?;
        config.validate()?;
        Ok(config)
    }

    /// Checks referential integrity: every referenced filter must exist.
    pub fn validate(&self) -> Result<(), ParseError> {
        for n in &self.neighbors {
            for f in [&n.import_filter, &n.export_filter].into_iter().flatten() {
                if !self.filters.contains_key(f) {
                    return Err(ParseError {
                        line: 0,
                        message: format!("neighbor {} references unknown filter `{f}`", n.address),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROVIDER_CONFIG: &str = r#"
        # Provider AS (PCCW analog) with a customer and a transit peer.
        router id 10.0.0.2;
        local as 3491;

        filter customer_in {
            if net ~ [ 208.65.152.0/22{22,24} ] then {
                local_pref = 200;
                accept;
            }
            reject;
        }

        filter announce_all {
            accept;
        }

        neighbor 10.0.1.1 as 17557 {
            import filter customer_in;
            export filter announce_all;
        }

        neighbor 10.0.2.1 as 1299 {
            import filter announce_all;
            export filter announce_all;
        }

        static 203.0.113.0/24 via 10.0.0.2;
    "#;

    #[test]
    fn parses_full_configuration() {
        let cfg = RouterConfig::parse(PROVIDER_CONFIG).expect("parses");
        assert_eq!(cfg.router_id, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(cfg.local_as, 3491);
        assert_eq!(cfg.neighbors.len(), 2);
        assert_eq!(cfg.neighbors[0].remote_as, 17557);
        assert_eq!(
            cfg.neighbors[0].import_filter.as_deref(),
            Some("customer_in")
        );
        assert_eq!(cfg.filters.len(), 2);
        assert_eq!(cfg.static_routes.len(), 1);
        assert!(cfg.filter("customer_in").is_some());
        assert!(cfg.filter("missing").is_none());
    }

    #[test]
    fn missing_identity_is_rejected() {
        assert!(RouterConfig::parse("local as 1;").is_err());
        assert!(RouterConfig::parse("router id 10.0.0.1;").is_err());
        let err = RouterConfig::parse("bogus;").expect_err("fails");
        assert!(err.to_string().contains("top-level"));
    }

    #[test]
    fn unknown_filter_reference_is_rejected() {
        let src = r#"
            router id 10.0.0.1;
            local as 65001;
            neighbor 10.0.0.2 as 65002 {
                import filter nonexistent;
            }
        "#;
        let err = RouterConfig::parse(src).expect_err("fails");
        assert!(err.to_string().contains("unknown filter"));
    }

    #[test]
    fn builder_api_matches_parsed_form() {
        let built = RouterConfig::new(Ipv4Addr::new(10, 0, 0, 2), 3491)
            .with_filter(FilterDef::accept_all("announce_all"))
            .with_neighbor(NeighborConfig {
                address: Ipv4Addr::new(10, 0, 2, 1),
                remote_as: 1299,
                import_filter: Some("announce_all".into()),
                export_filter: Some("announce_all".into()),
            })
            .with_static_route(
                "203.0.113.0/24".parse().expect("valid"),
                Ipv4Addr::new(10, 0, 0, 2),
            );
        assert!(built.validate().is_ok());
        assert_eq!(built.neighbors.len(), 1);
        assert_eq!(built.static_routes.len(), 1);
    }

    #[test]
    fn as_numbers_beyond_32_bits_are_rejected_not_truncated() {
        let config = |local: &str, remote: &str| {
            format!("router id 10.0.0.1;\nlocal as {local};\nneighbor 10.0.0.2 as {remote} {{ }}")
        };
        // The largest AS number parses as itself on both lines.
        let cfg = RouterConfig::parse(&config("4294967295", "4294967295")).expect("parses");
        assert_eq!(cfg.local_as, u32::MAX);
        assert_eq!(cfg.neighbors[0].remote_as, u32::MAX);
        // One more used to wrap to AS 0; the error names the number.
        for src in [config("4294967296", "65002"), config("65001", "4294967296")] {
            let err = RouterConfig::parse(&src).expect_err("out of range");
            assert!(
                err.message
                    .contains("AS number `4294967296` is out of range"),
                "{err}"
            );
            assert!(err.line == 2 || err.line == 3, "{err}");
        }
        // The language has no negative numbers: the sign never reaches the
        // number at all.
        for src in [config("-1", "65002"), config("65001", "-1")] {
            let err = RouterConfig::parse(&src).expect_err("no negative numbers");
            assert!(err.message.contains("`-`"), "{err}");
        }
    }

    #[test]
    fn neighbor_without_filters_accepts_everything() {
        let src = r#"
            router id 10.0.0.1;
            local as 65001;
            neighbor 10.0.0.2 as 65002 { }
        "#;
        let cfg = RouterConfig::parse(src).expect("parses");
        assert_eq!(cfg.neighbors[0].import_filter, None);
        assert_eq!(cfg.neighbors[0].export_filter, None);
    }
}
