//! The EC2 instance catalog — the paper's Table I.

/// One EC2 instance type row from Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    /// AWS type name.
    pub name: &'static str,
    /// vCPU cores.
    pub vcpus: u32,
    /// Memory, GB.
    pub memory_gb: f64,
    /// Network allowance, Mbps.
    pub network_mbps: u32,
    /// On-demand price, USD/hour (ap-southeast-2, 2018).
    pub price_usd_hr: f64,
}

janus_types::impl_to_json!(InstanceType {
    name,
    vcpus,
    memory_gb,
    network_mbps,
    price_usd_hr,
});

/// c3.large — 2 vCPU.
pub const C3_LARGE: InstanceType = InstanceType {
    name: "c3.large",
    vcpus: 2,
    memory_gb: 3.75,
    network_mbps: 250,
    price_usd_hr: 0.188,
};

/// c3.xlarge — 4 vCPU.
pub const C3_XLARGE: InstanceType = InstanceType {
    name: "c3.xlarge",
    vcpus: 4,
    memory_gb: 7.5,
    network_mbps: 500,
    price_usd_hr: 0.376,
};

/// c3.2xlarge — 8 vCPU.
pub const C3_2XLARGE: InstanceType = InstanceType {
    name: "c3.2xlarge",
    vcpus: 8,
    memory_gb: 15.0,
    network_mbps: 1000,
    price_usd_hr: 0.752,
};

/// c3.4xlarge — 16 vCPU.
pub const C3_4XLARGE: InstanceType = InstanceType {
    name: "c3.4xlarge",
    vcpus: 16,
    memory_gb: 30.0,
    network_mbps: 2000,
    price_usd_hr: 1.504,
};

/// c3.8xlarge — 32 vCPU.
pub const C3_8XLARGE: InstanceType = InstanceType {
    name: "c3.8xlarge",
    vcpus: 32,
    memory_gb: 60.0,
    network_mbps: 10000,
    price_usd_hr: 3.008,
};

/// r3.xlarge — 4 vCPU, memory-optimized.
pub const R3_XLARGE: InstanceType = InstanceType {
    name: "r3.xlarge",
    vcpus: 4,
    memory_gb: 30.5,
    network_mbps: 500,
    price_usd_hr: 0.455,
};

/// r3.2xlarge — 8 vCPU, memory-optimized (the paper's RDS instance).
pub const R3_2XLARGE: InstanceType = InstanceType {
    name: "r3.2xlarge",
    vcpus: 8,
    memory_gb: 61.0,
    network_mbps: 1000,
    price_usd_hr: 0.910,
};

/// Every row of Table I, in the paper's order.
pub const TABLE_I: [InstanceType; 7] = [
    C3_LARGE, C3_XLARGE, C3_2XLARGE, C3_4XLARGE, C3_8XLARGE, R3_XLARGE, R3_2XLARGE,
];

/// The c3 compute family used for router/QoS-server scaling sweeps.
pub const C3_FAMILY: [InstanceType; 5] = [C3_LARGE, C3_XLARGE, C3_2XLARGE, C3_4XLARGE, C3_8XLARGE];

/// Look a type up by its AWS name.
pub fn by_name(name: &str) -> Option<InstanceType> {
    TABLE_I.iter().copied().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_values() {
        assert_eq!(C3_LARGE.vcpus, 2);
        assert_eq!(C3_8XLARGE.vcpus, 32);
        assert_eq!(C3_8XLARGE.network_mbps, 10_000);
        assert_eq!(R3_2XLARGE.memory_gb, 61.0);
        assert_eq!(C3_4XLARGE.price_usd_hr, 1.504);
    }

    #[test]
    fn c3_prices_scale_linearly_with_size() {
        // Table I doubles price with size within the c3 family.
        for pair in C3_FAMILY.windows(2) {
            assert!((pair[1].price_usd_hr / pair[0].price_usd_hr - 2.0).abs() < 1e-9);
            assert_eq!(pair[1].vcpus, pair[0].vcpus * 2);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("c3.xlarge"), Some(C3_XLARGE));
        assert_eq!(by_name("t2.micro"), None);
    }
}
